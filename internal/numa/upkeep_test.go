package numa_test

// Differential test for the heat counters: forcing their upkeep on under
// the paper's Threshold, which never reads them, must not move a run by
// a single count or tick.

import (
	"reflect"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/workloads"
)

// runThreshold runs w under the default Threshold on three processors,
// with heat upkeep forced on when heat is set, and collects the fields
// metrics.Run reports.
func runThreshold(t *testing.T, w metrics.Runner, heat bool) metrics.RunResult {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	spec := metrics.RunSpec{Config: cfg, Policy: policy.NewDefault(), Workers: 3, Sched: sched.Affinity}
	sys, err := metrics.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Kernel.NUMA()
	if heat {
		numa.ForceHeatUpkeep(n)
	}
	if got := n.TracksHeat(); got != heat {
		t.Fatalf("%s: TracksHeat = %v, want %v", w.Name(), got, heat)
	}
	if err := w.Run(sys.Runtime, spec.Workers); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	m := sys.Machine
	var enters uint64
	for i := 0; i < m.NProc(); i++ {
		enters += m.MMU(i).Stats().Enters
	}
	return metrics.RunResult{
		Workload: w.Name(), Policy: spec.Policy.Name(), NProc: cfg.NProc, Workers: spec.Workers,
		UserSec: m.Engine().TotalUserTime().Ticks(), SysSec: m.Engine().TotalSysTime().Ticks(),
		Refs: m.TotalRefs(), NUMA: n.Stats(), VM: sys.Kernel.Stats(), Faults: m.TotalFaults(),
		MMUEnters: enters, Links: m.Topo().LinkStats(), Sched: sys.Runtime.Scheduler().Stats(),
	}
}

// TestHeatUpkeepIsInvisible runs the same workloads under the bare
// Threshold and under Threshold with the heat counters maintained on
// every request; every measured field must match. The counters are
// bookkeeping for the policies that read them and may not perturb a
// policy that does not.
func TestHeatUpkeepIsInvisible(t *testing.T) {
	for _, mk := range []func() metrics.Runner{
		func() metrics.Runner { return workloads.NewGfetch(12, 4) },
		func() metrics.Runner { return workloads.NewZipf(0, 0, 0) },
		func() metrics.Runner { return workloads.NewPhased(0, 0, 0) },
	} {
		bare := runThreshold(t, mk(), false)
		// The result is collected here as metrics.Run collects it.
		cfg := ace.DefaultConfig()
		cfg.NProc = 3
		ref, err := metrics.Run(mk(), metrics.RunSpec{Config: cfg, Policy: policy.NewDefault(), Workers: 3, Sched: sched.Affinity})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, ref) {
			t.Fatalf("%s: runThreshold collects a different result than metrics.Run:\ngot:  %+v\nwant: %+v", bare.Workload, bare, ref)
		}
		heat := runThreshold(t, mk(), true)
		if !reflect.DeepEqual(bare, heat) {
			t.Errorf("%s: heat upkeep moved the run:\nbare: %+v\nheat: %+v", bare.Workload, bare, heat)
		}
	}
}
