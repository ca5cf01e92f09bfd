// The adaptive policy zoo: counter-driven policies built on the NUMA
// manager's per-page decaying access histograms and move counters,
// which the manager keeps for any numa.ReconsideringPolicy (see
// internal/numa/policyapi.go).
//
// Where the paper's Threshold pins on the lifetime move count — a
// one-way door — these policies react to decayed counters, so a page
// that was contended in one phase of a program can come back to local
// memory in the next:
//
//   - DecayThreshold pins on the decaying move counter and unpins as
//     it cools (the simplest possible adaptive fix to Threshold);
//   - Classifier splits pages into the literature's two regimes:
//     read-mostly pages replicate locally, write-contended pages
//     without a dominant accessor go global.
//
// Every method on these types runs on the protocol hot path and
// allocates nothing.
package policy

import (
	"fmt"

	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
)

// DefaultSweepInterval is the defrost sweep period the adaptive
// policies request, matching Reconsider's default: pinned pages are
// re-presented every 50 virtual ms so a cooled page can unpin.
const DefaultSweepInterval = 50 * sim.Millisecond

// DecayThreshold is Threshold on the decaying move counter: a page is
// pinned global while its decayed move heat meets the limit and comes
// back to local memory once the heat has decayed away. Implementing
// ReconsideringPolicy turns the manager's heat counters on and gets
// pinned pages re-presented.
type DecayThreshold struct {
	Limit    uint32
	Interval sim.Time
}

// NewDecayThreshold returns the adaptive threshold with the given
// decayed-move-heat limit.
func NewDecayThreshold(limit int) *DecayThreshold {
	if limit < 1 {
		panic(fmt.Sprintf("policy: decay threshold limit %d < 1", limit))
	}
	return &DecayThreshold{Limit: uint32(limit), Interval: DefaultSweepInterval}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (d *DecayThreshold) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if pg.MoveHeat() >= d.Limit {
		return numa.Global
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (d *DecayThreshold) Name() string { return fmt.Sprintf("decay-threshold(%d)", d.Limit) }

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (d *DecayThreshold) ReconsiderInterval() sim.Time { return d.Interval }

// Classifier realizes the literature's two-regime rule directly:
// read-mostly pages (never written, or mapped read-only) replicate
// into local memory; writable pages are partitioned locally while one
// node dominates their decayed access heat, and go global only while
// they are both moving (decayed move heat at the limit) and spread
// across nodes with no majority accessor.
type Classifier struct {
	Limit    uint32 // decayed move heat to call a page contended
	Interval sim.Time
}

// NewClassifier returns a classifier with the given contention limit.
func NewClassifier(limit int) *Classifier {
	if limit < 1 {
		panic(fmt.Sprintf("policy: classifier limit %d < 1", limit))
	}
	return &Classifier{Limit: uint32(limit), Interval: DefaultSweepInterval}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (c *Classifier) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if !maxProt.CanWrite() || !pg.EverWritten() {
		return numa.Local
	}
	if pg.MoveHeat() >= c.Limit {
		hot := pg.HotNode()
		if hot < 0 || 2*uint64(pg.NodeHeat(hot)) <= pg.TotalHeat() {
			return numa.Global
		}
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (c *Classifier) Name() string { return fmt.Sprintf("classifier(%d)", c.Limit) }

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (c *Classifier) ReconsiderInterval() sim.Time { return c.Interval }

// Compile-time interface checks.
var (
	_ numa.ReconsideringPolicy = (*DecayThreshold)(nil)
	_ numa.ReconsideringPolicy = (*Classifier)(nil)
)
