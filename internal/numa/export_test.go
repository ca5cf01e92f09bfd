package numa

import (
	"fmt"

	"numasim/internal/sim"
)

// This file exports the dense directory's test oracle to the black-box
// fuzz suite. MapOracle is the pre-dense representation of the manager's
// hot state — a map-based live-page index and map-based per-processor
// residency tables — maintained through the mirror hook and compared
// against the dense forms after every protocol step. It exists only
// under test; production code never constructs one.

// MapOracle mirrors directory and residency mutations into maps.
type MapOracle struct {
	live     map[int64]*Page       // page id -> page (old live-index form)
	resident map[int]map[int]*Page // proc -> frame index -> page
}

// InstallMapOracle hooks a fresh oracle into the manager's mirror
// interface. Install before any page is created.
func InstallMapOracle(n *Manager) *MapOracle {
	if n.dir.len() != 0 {
		panic("numa: InstallMapOracle on a manager with live pages")
	}
	o := &MapOracle{
		live:     make(map[int64]*Page),
		resident: make(map[int]map[int]*Page),
	}
	for p := range n.shards {
		o.resident[p] = make(map[int]*Page)
	}
	n.mir = o
	return o
}

func (o *MapOracle) register(pg *Page)   { o.live[pg.id] = pg }
func (o *MapOracle) unregister(pg *Page) { delete(o.live, pg.id) }
func (o *MapOracle) noteCopy(pg *Page, proc, frame int) {
	o.resident[proc][frame] = pg
}
func (o *MapOracle) noteDrop(proc, frame int) {
	delete(o.resident[proc], frame)
}

// Check compares the manager's dense sharded state against the map
// oracle: the live-page directory must hold exactly the oracle's pages,
// and each processor's residency shard must record exactly the oracle's
// (frame, page) entries, with every recorded page holding a matching
// copy. It returns the first divergence found, or nil.
func (o *MapOracle) Check(n *Manager) error {
	seen := 0
	err := n.dir.forEach(func(pg *Page) error {
		seen++
		got, ok := o.live[pg.id]
		if !ok {
			return fmt.Errorf("page%d is in the dense directory but not the map oracle", pg.id)
		}
		if got != pg {
			return fmt.Errorf("page%d: dense directory and map oracle hold different records", pg.id)
		}
		if pg.slot < 0 || int(pg.slot) >= len(n.dir.slots) ||
			n.dir.slots[pg.slot].pg != pg || n.dir.slots[pg.slot].gen != pg.gen {
			return fmt.Errorf("page%d: slot/generation stamp does not match its directory slot", pg.id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if seen != len(o.live) {
		return fmt.Errorf("dense directory holds %d pages, map oracle %d", seen, len(o.live))
	}
	for p := range n.shards {
		dense := n.shards[p].resident
		count := 0
		for i, pg := range dense {
			if pg == nil {
				continue
			}
			count++
			got, ok := o.resident[p][i]
			if !ok {
				return fmt.Errorf("cpu%d frame %d: dense shard records page%d, map oracle records nothing", p, i, pg.id)
			}
			if got != pg {
				return fmt.Errorf("cpu%d frame %d: dense shard records page%d, map oracle page%d", p, i, pg.id, got.id)
			}
			if c := pg.copies[p]; c == nil || c.Index() != i {
				return fmt.Errorf("cpu%d frame %d: resident page%d holds no matching copy", p, i, pg.id)
			}
		}
		if count != len(o.resident[p]) {
			return fmt.Errorf("cpu%d: dense shard records %d copies, map oracle %d", p, count, len(o.resident[p]))
		}
	}
	return nil
}

// SetHeatEpoch shortens the heat counters' decay period from
// DefaultHeatEpoch, so a short fuzz script crosses many epochs. Call it
// before the simulation runs.
func SetHeatEpoch(n *Manager, d sim.Time) { n.heatEpoch = d }

// CurEpoch returns the decay epoch of the manager's latest request.
func CurEpoch(n *Manager) uint32 { return n.curEpoch }

// ForceHeatUpkeep turns the heat counters on under a policy that is not
// a ReconsideringPolicy, without the defrost sweep. Call it before the
// simulation runs.
func ForceHeatUpkeep(n *Manager) { n.trackHeat = true }
