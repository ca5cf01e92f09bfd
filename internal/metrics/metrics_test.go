package metrics_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/workloads"
)

func TestDeriveMatchesPaperRows(t *testing.T) {
	// Feed the paper's own published times through equations (1), (4), (5)
	// and check we recover the published α, β, γ.
	cases := []struct {
		name                   string
		tGlobal, tNuma, tLocal sim.Ticks
		gOverL                 float64
		alpha, beta, gamma     float64
	}{
		// Note: the paper prints β=0.26 for IMatMult, but its published
		// times give (82.1−68.2)/68.2 · 1/1.3 ≈ 0.157 under the G/L=2.3
		// convention its footnote 3 assigns to IMatMult (and ≈0.20 under
		// G/L=2). We check the value equation (5) actually yields; see
		// EXPERIMENTS.md.
		{"IMatMult", 82.1, 69.0, 68.2, 2.3, 0.94, 0.157, 1.01},
		{"Primes3", 39.1, 37.4, 28.8, 2.0, 0.17, 0.36, 1.30},
		{"FFT", 687.4, 449.0, 438.4, 2.0, 0.96, 0.57, 1.02},
		{"Gfetch", 60.2, 60.2, 26.5, 2.3, 0.0, 0.98, 2.27},
	}
	for _, c := range cases {
		alpha, beta, gamma := metrics.Derive(c.tGlobal, c.tNuma, c.tLocal, c.gOverL)
		if math.Abs(alpha-c.alpha) > 0.02 {
			t.Errorf("%s: α = %.3f, want %.2f", c.name, alpha, c.alpha)
		}
		if math.Abs(beta-c.beta) > 0.02 {
			t.Errorf("%s: β = %.3f, want %.2f", c.name, beta, c.beta)
		}
		if math.Abs(gamma-c.gamma) > 0.01 {
			t.Errorf("%s: γ = %.3f, want %.2f", c.name, gamma, c.gamma)
		}
	}
}

func TestDeriveDegenerate(t *testing.T) {
	// T_global == T_local: β is 0 and α undefined (reported 0).
	alpha, beta, gamma := metrics.Derive(10, 10, 10, 2)
	if alpha != 0 || beta != 0 || gamma != 1 {
		t.Errorf("degenerate derive = %v %v %v", alpha, beta, gamma)
	}
}

func TestDeriveClamps(t *testing.T) {
	// Measurement noise can push Tnuma slightly outside [Tlocal, Tglobal];
	// α must stay in [0, 1].
	alpha, _, _ := metrics.Derive(10, 10.5, 9, 2)
	if alpha != 0 {
		t.Errorf("α = %v, want clamped to 0", alpha)
	}
	alpha, _, _ = metrics.Derive(10, 8.5, 9, 2)
	if alpha != 1 {
		t.Errorf("α = %v, want clamped to 1", alpha)
	}
}

func TestModelPredictTnuma(t *testing.T) {
	// Equation (2) must be the inverse of Derive: predicting T_numa from
	// the derived parameters reproduces the measured T_numa.
	tGlobal, tNuma, tLocal := sim.Ticks(82.1), sim.Ticks(69.0), sim.Ticks(68.2)
	gl := 2.3
	alpha, beta, _ := metrics.Derive(tGlobal, tNuma, tLocal, gl)
	pred := metrics.ModelPredictTnuma(tLocal, alpha, beta, gl)
	if math.Abs(float64(pred-tNuma)) > 1e-9 {
		t.Errorf("model round trip: predicted %.6f, measured %.6f", pred, tNuma)
	}
	// And with α=0 it must reproduce T_global (equation 3).
	predG := metrics.ModelPredictTnuma(tLocal, 0, beta, gl)
	if math.Abs(float64(predG-tGlobal)) > 1e-9 {
		t.Errorf("α=0 prediction %.6f, want T_global %.6f", predG, tGlobal)
	}
}

func TestRunCollectsEverything(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 512
	cfg.LocalFrames = 256
	res, err := metrics.Run(workloads.NewIMatMult(12), metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 3, Sched: sched.Affinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "IMatMult" || res.Policy != "threshold(4)" || res.NProc != 3 {
		t.Errorf("identity fields: %+v", res)
	}
	if res.UserSec <= 0 || res.SysSec <= 0 {
		t.Error("no time accounted")
	}
	if res.Refs.Total() == 0 || res.Faults == 0 || res.MMUEnters == 0 {
		t.Error("no activity counted")
	}
}

func TestRunPropagatesWorkloadErrors(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 1
	cfg.GlobalFrames = 2 // far too small: forces pageout storms; still works
	cfg.LocalFrames = 2
	// A workload that fails verification is impossible to fake here, so
	// instead check the error path with an impossible machine: zero
	// processors fails config validation, which Run must surface.
	cfg.NProc = 0
	_, err := metrics.Run(workloads.NewParMult(2, 2), metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 1, Sched: sched.Affinity,
	})
	if err == nil {
		t.Error("want error from invalid config")
	}
}

// TestRunRejectsBadChaos: an out-of-range chaos config is an error from
// Run, not a panic while the machine is built.
func TestRunRejectsBadChaos(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 1
	_, err := metrics.Run(workloads.NewParMult(2, 2), metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 1, Sched: sched.Affinity,
		Chaos: chaos.Config{FailProb: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "FailProb") {
		t.Errorf("err = %v, want the FailProb range error", err)
	}
}

func TestEvaluatorEndToEnd(t *testing.T) {
	ev := metrics.NewEvaluator()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 512
	cfg.LocalFrames = 256
	ev.Config = cfg
	e, err := ev.Evaluate(func() (metrics.Runner, error) { return workloads.NewGfetch(6, 4), nil })
	if err != nil {
		t.Fatal(err)
	}
	if e.Workload != "Gfetch" {
		t.Errorf("workload = %q", e.Workload)
	}
	// Gfetch's invariants hold even at tiny sizes.
	if e.Beta < 0.9 {
		t.Errorf("Gfetch β = %.2f, want ≈1", e.Beta)
	}
	if e.GOverL < 2.2 || e.GOverL > 2.4 {
		t.Errorf("fetch-heavy G/L = %.2f, want ≈2.3", e.GOverL)
	}
	if e.Tlocal <= 0 || e.Tnuma < e.Tlocal {
		t.Errorf("times inconsistent: %+v", e)
	}
	if e.LocalRun.NProc != 1 || e.LocalRun.Workers != 1 {
		t.Error("T_local run must use one thread on a one-processor machine")
	}
	if e.GlobalRun.Policy != "all-global" || e.LocalRun.Policy != "all-local" {
		t.Error("baseline policies wrong")
	}
	// The cross-check: the true local fraction should be low for Gfetch.
	if e.MeasuredLocalFrac > 0.3 {
		t.Errorf("measured local fraction = %.2f, want near 0", e.MeasuredLocalFrac)
	}
}

// TestProcessorRunsOneThreadAtATime checks the premise of the link
// model's closed-system bound (topology.CheckBound): link charges are
// synchronous, so a processor has at most one transfer in flight as
// long as the threads sharing it never run at overlapping virtual
// times. With two workers per processor on a contended machine, every
// processor's run spans must be disjoint. Across processors they are
// not: a span dispatched later starts before an earlier one ends, so
// transfers reach the links out of virtual-time order.
func TestProcessorRunsOneThreadAtATime(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 4
	cfg.Topology = "mesh8"
	cfg.GlobalFrames = 512
	cfg.LocalFrames = 256
	sink := &simtrace.ListSink{}
	if _, err := metrics.Run(workloads.NewIMatMult(12), metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 8, Sched: sched.Affinity, TraceSink: sink,
	}); err != nil {
		t.Fatal(err)
	}
	// A thread binds to its processor inside its first span, so that
	// span's start is when it asked for the processor, not when it got
	// it; only its end is checked.
	type span struct {
		thread     int32
		start, end int64
		first      bool
	}
	spans := make([][]span, cfg.NProc)
	seen := map[int32]bool{}
	var latest int64
	outOfOrder := false
	for _, ev := range sink.Events() {
		if ev.Kind != simtrace.KindSpan || ev.Proc < 0 {
			continue
		}
		spans[ev.Proc] = append(spans[ev.Proc], span{ev.Thread, ev.Time, ev.Time + ev.Dur, !seen[ev.Thread]})
		seen[ev.Thread] = true
		outOfOrder = outOfOrder || ev.Time < latest
		latest = max(latest, ev.Time+ev.Dur)
	}
	for proc, ss := range spans {
		threads := map[int32]bool{}
		sort.Slice(ss, func(i, j int) bool { return ss[i].end < ss[j].end })
		for i, s := range ss {
			threads[s.thread] = true
			if i > 0 && !s.first && s.start < ss[i-1].end {
				t.Fatalf("cpu%d: thread %d ran from %d ns while thread %d ran until %d ns",
					proc, s.thread, s.start, ss[i-1].thread, ss[i-1].end)
			}
		}
		if len(threads) < 2 {
			t.Errorf("cpu%d ran %d threads; the check needs processors shared by threads", proc, len(threads))
		}
	}
	if !outOfOrder {
		t.Error("no span started before an earlier-dispatched span ended; the run never interleaved")
	}
}

// TestAuditRejectsBrokenLinkBound: with auditing on, a run whose links
// broke the closed-system bound is an error; with auditing off the same
// run succeeds. The machine hook breaks the bound by issuing three
// page transfers from one processor at once on a 2-CPU machine, so the
// third waits two services where the bound allows one.
func TestAuditRejectsBrokenLinkBound(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.Topology = "4socket"
	cfg.GlobalFrames = 512
	cfg.LocalFrames = 256
	overlap := func(m *ace.Machine) {
		for i := 0; i < 3; i++ {
			m.Topo().ChargeTransfer(0, 0, 1, cfg.PageSize)
		}
	}
	for _, audit := range []int{0, 1 << 20} {
		_, err := metrics.Run(workloads.NewParMult(4, 4), metrics.RunSpec{
			Config: cfg, Policy: policy.NewDefault(), Workers: 2, Sched: sched.Affinity,
			Audit: audit, OnMachine: overlap,
		})
		switch {
		case audit == 0 && err != nil:
			t.Errorf("unaudited run: %v", err)
		case audit > 0 && (err == nil || !strings.Contains(err.Error(), "node0-node1")):
			t.Errorf("audited run: err = %v, want the bound violation on node0-node1", err)
		}
	}
}
