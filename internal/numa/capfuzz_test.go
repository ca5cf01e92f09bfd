package numa_test

// Capability fuzz: the seeded protocol fuzz rerun with a policy that
// carries the policy API's one optional capability, ReconsideringPolicy.
// The heat counters, the epoch clock and the defrost sweep run hot while
// the usual apparatus (online audit at stride 1, the dense/map oracle,
// the last-write-wins content oracle) checks that none of it perturbs
// the protocol.

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// capPolicy wraps the scripted policy with the reconsidering
// capability and a short defrost interval.
type capPolicy struct {
	*policy.Scripted
	consulted int // ReconsiderInterval calls: the sweep ran its check
}

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (c *capPolicy) ReconsiderInterval() sim.Time {
	c.consulted++
	return sim.Millisecond
}

var _ numa.ReconsideringPolicy = (*capPolicy)(nil)

// capFuzzScript is fuzzScript's capability-bearing sibling: same shape
// of seeded access script, but with heat upkeep and the defrost sweep
// on throughout.
func capFuzzScript(t *testing.T, seed int64) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 4
	cfg.PageSize = 256
	rng := rand.New(rand.NewSource(seed))
	m := ace.MustMachine(cfg)

	const nops = 120
	pol := &capPolicy{Scripted: &policy.Scripted{}}
	for i := 0; i < nops; i++ {
		if rng.Intn(2) == 0 {
			pol.Answers = append(pol.Answers, numa.Local)
		} else {
			pol.Answers = append(pol.Answers, numa.Global)
		}
	}
	n := numa.NewManager(m, pol)
	if !n.TracksHeat() {
		t.Fatalf("seed %d: capability policy bound but heat tracking is off", seed)
	}
	// A short epoch so the counters decay within the run.
	numa.SetHeatEpoch(n, sim.Millisecond)

	ring := simtrace.NewRingSink(256)
	checker := newProtocolChecker()
	m.AttachSink(simtrace.Tee(ring, checker))
	n.EnableAudit(1, ring)
	mirror := numa.InstallMapOracle(n)

	const npages = 6
	pages := make([]*numa.Page, npages)
	oracle := make([]uint32, npages)

	var scriptErr error
	m.Engine().Spawn("capfuzz", 0, func(th *sim.Thread) {
		scriptErr = func() error {
			for i := range pages {
				pg, err := n.NewPage()
				if err != nil {
					return err
				}
				pages[i] = pg
			}
			for op := 0; op < nops; op++ {
				i := rng.Intn(npages)
				pg := pages[i]
				proc := rng.Intn(cfg.NProc)
				switch r := rng.Intn(100); {
				case r < 70:
					write := rng.Intn(2) == 0
					f, prot := n.Access(th, pg, proc, write, mmu.ProtReadWrite)
					if write {
						if !prot.CanWrite() {
							return fmt.Errorf("op %d: write access granted prot %v", op, prot)
						}
						v := uint32(seed)<<8 | uint32(op)
						f.Store32(0, v)
						oracle[i] = v
					} else if got := f.Load32(0); got != oracle[i] {
						return fmt.Errorf("op %d: page%d read %#x, oracle %#x", op, pg.ID(), got, oracle[i])
					}
					// Keep virtual time moving so heat epochs elapse.
					th.Idle(200 * sim.Microsecond)
				case r < 80:
					n.PrepareEvict(th, pg)
				case r < 90:
					n.MigrateOwner(th, pg, rng.Intn(cfg.NProc))
				default:
					n.FreePageSync(n.FreePage(th, pg))
					fresh, err := n.NewPage()
					if err != nil {
						return err
					}
					pages[i], oracle[i] = fresh, 0
				}
				for j, p := range pages {
					if err := n.CheckInvariants(p); err != nil {
						return fmt.Errorf("op %d: %w", op, err)
					}
					if got := p.Authoritative().Load32(0); got != oracle[j] {
						return fmt.Errorf("op %d: page%d authoritative copy holds %#x, oracle %#x",
							op, p.ID(), got, oracle[j])
					}
				}
				if err := mirror.Check(n); err != nil {
					return fmt.Errorf("op %d: dense/map divergence: %w", op, err)
				}
			}
			return nil
		}()
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatalf("seed %d: engine: %v", seed, err)
	}
	if scriptErr != nil || len(checker.errs) > 0 {
		t.Errorf("seed %d: script error: %v; checker errors: %v", seed, scriptErr, checker.errs)
		t.Logf("last %d events:\n%s", len(ring.Events()), simtrace.FormatEvents(ring.Events()))
		return
	}
	if numa.CurEpoch(n) == 0 {
		t.Errorf("seed %d: the heat epoch clock never ticked", seed)
	}
	if pol.consulted == 0 {
		t.Errorf("seed %d: the defrost sweep never ran", seed)
	}
}

// TestProtocolFuzzCapabilities replays seeded scripts with the
// capability-bearing policy. A pass means the heat counters and the
// defrost sweep never corrupt contents, break a directory invariant, or
// diverge the dense forms from the map oracle.
func TestProtocolFuzzCapabilities(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		capFuzzScript(t, int64(20_000+seed))
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
}
