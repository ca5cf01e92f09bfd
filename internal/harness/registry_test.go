package harness

import (
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// TestRegistryLookup: lookup is case-insensitive and misses are reported.
func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"table3", "Table3", "TABLE3", "pressureSweep"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed", name)
		}
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup invented an experiment")
	}
}

// TestRegistryNames: the name list is sorted, unique, and consistent with
// Lookup.
func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("names unsorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[strings.ToLower(n)] {
			t.Errorf("duplicate name %q", n)
		}
		seen[strings.ToLower(n)] = true
		e, ok := Lookup(n)
		if !ok {
			t.Errorf("listed name %q does not look up", n)
			continue
		}
		if e.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, e.Name())
		}
		if e.Describe() == "" {
			t.Errorf("%q has no description", n)
		}
	}
}

// TestTablesSequenceRegistered: every experiment the tables command prints
// by default must exist in the registry.
func TestTablesSequenceRegistered(t *testing.T) {
	for _, name := range TablesSequence {
		if _, ok := Lookup(name); !ok {
			t.Errorf("TablesSequence entry %q not registered", name)
		}
	}
}

// TestRegisterRejectsDuplicates: a duplicate registration is a programming
// error and must panic.
func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(expFunc{name: "Table3", describe: "dup", run: nil})
}

// TestRegistryExperimentsRun: every registered experiment runs end to end
// on a small configuration and renders non-empty output.
func TestRegistryExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	opts := Options{NProc: 3, Small: true, App: "Gfetch", PressureFrames: []int{8}}
	for _, name := range Names() {
		e, _ := Lookup(name)
		res, err := e.Run(opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Render() == "" {
			t.Errorf("%s rendered nothing", name)
		}
	}
}

// TestAblationEntriesRender: the page-size, G/L and quantum sweeps, the
// application mix and the Unix-master comparison run from the registry
// with their default applications and render their tables (the sweeps
// as CSV too).
func TestAblationEntriesRender(t *testing.T) {
	cases := []struct {
		name, want string
		csv        bool
	}{
		{"pagesizesweep", "Page size sweep on IMatMult", true},
		{"glsweep", "Global-latency sweep on IMatMult", true},
		{"quantumsweep", "Scheduling quantum sweep on IMatMult", true},
		{"mix", "Application mix: IMatMult + Primes1 + FFT", false},
		{"unixmaster", "Unix master (§4.6) on Syscaller", false},
	}
	for _, c := range cases {
		e, ok := Lookup(c.name)
		if !ok {
			t.Errorf("%s: not registered", c.name)
			continue
		}
		res, err := e.Run(Options{NProc: 3, Small: true})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if out := res.Render(); !strings.Contains(out, c.want) {
			t.Errorf("%s: render lacks %q:\n%s", c.name, c.want, out)
		}
		if cr, ok := res.(CSVResult); ok != c.csv {
			t.Errorf("%s: CSV rendering available = %v, want %v", c.name, ok, c.csv)
		} else if ok && strings.Count(cr.RenderCSV(), "\n") < 2 {
			t.Errorf("%s: CSV has no rows:\n%s", c.name, cr.RenderCSV())
		}
	}
}

// TestEveryExperimentReachesItsRuns: every registry entry that simulates
// takes its per-run fields from Options.Spec, so the trace sink, the
// supervisor's machine hook and chaos reach every run it makes. An
// entry that builds a spec by hand and drops one of them fails here.
func TestEveryExperimentReachesItsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice")
	}
	noRuns := map[string]string{
		"table1":  "drives the bare NUMA manager on a probe machine; no workload runs",
		"table2":  "drives the bare NUMA manager on a probe machine; no workload runs",
		"figure1": "renders the machine's diagram; nothing is simulated",
		"figure2": "a fixed diagram; nothing is simulated",
	}
	for _, name := range Names() {
		if why, ok := noRuns[name]; ok {
			t.Logf("skipping %s: %s", name, why)
			continue
		}
		t.Run(name, func(t *testing.T) {
			e, _ := Lookup(name)
			sink := &simtrace.CountingSink{}
			var machines atomic.Int64
			opts := Options{Small: true, NProc: 3, TraceSink: sink}
			opts.onMachine = func(*ace.Machine) { machines.Add(1) }
			if _, err := e.Run(opts); err != nil {
				t.Fatal(err)
			}
			if sink.Total() == 0 {
				t.Error("the trace sink saw no events")
			}
			if machines.Load() == 0 {
				t.Error("the machine hook saw no machine")
			}
			drill := Options{Small: true, NProc: 3, Chaos: chaos.Config{PanicAt: 100 * sim.Microsecond}}
			if _, err := e.Run(drill); err == nil {
				t.Error("a chaos panic at 100µs did not fail the experiment")
			}
		})
	}
}
