package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// The untraced ACE Table 3 pass takes seconds; tests share one.
var (
	table3Once sync.Once
	table3     pass
)

func table3Untraced(t *testing.T) pass {
	t.Helper()
	table3Once.Do(func() { table3 = measure(mustWorkload(t, "table3"), 1, nil, nil) })
	return table3
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runawayFFT is the T_global run of FFT on mesh8 as recorded at commit
// cf87f5e: 2,524,500 virtual seconds of user time. Link node1-node5
// charges a mean wait of 0.194 s per transfer against 0.138 s of service
// booked on it in the whole run.
var runawayFFT = metrics.RunResult{
	Workload: "FFT", Policy: "all-global", NProc: 7, Workers: 7,
	UserSec: 2524499.74,
	Links: []topology.LinkStats{
		{Name: "node0-node1", Xfers: 4106171, Bytes: 17451776, Service: 209421312, Waited: 247323881069841},
		{Name: "node1-node2", Xfers: 7155854, Bytes: 29445908, Service: 353350896, Waited: 1483825688250146},
		{Name: "node2-node3", Xfers: 4064057, Bytes: 16747268, Service: 200967216, Waited: 247319175579484},
		{Name: "node4-node5", Xfers: 2835283, Bytes: 11545732, Service: 138548784, Waited: 7594406492},
		{Name: "node5-node6", Xfers: 3401920, Bytes: 13840924, Service: 166091088, Waited: 12660577761},
		{Name: "node6-node7", Xfers: 1693743, Bytes: 6910008, Service: 82920096, Waited: 1881678343},
		{Name: "node0-node4", Xfers: 2817574, Bytes: 11552644, Service: 138631728, Waited: 12564031085},
		{Name: "node1-node5", Xfers: 2816006, Bytes: 11525912, Service: 138310944, Waited: 545940647487821},
		{Name: "node2-node6", Xfers: 1173616, Bytes: 4972720, Service: 59672640, Waited: 7776474231},
		{Name: "node3-node7", Xfers: 1172610, Bytes: 4952328, Service: 59427936, Waited: 14959438883},
	},
}

func TestPlausibilityFlagsRecordedRunaway(t *testing.T) {
	reason, ratio := implausible(runawayFFT, 200*sim.Microsecond)
	if !strings.Contains(reason, "node1-node5") || ratio <= 1 {
		t.Fatalf("recorded mesh8 runaway passed the check: reason %q, ratio %g", reason, ratio)
	}
}

func TestPlausibilityFlagsGammaBelowOne(t *testing.T) {
	ops := make([]op, 3)
	checkRow(row{app: "FFT", ok: true, eval: metrics.Eval{Tnuma: 20, Tlocal: 21, Gamma: 20.0 / 21}}, ops)
	if !strings.Contains(ops[0].reason, "gamma") || ops[1].reason != "" || ops[2].reason != "" {
		t.Fatalf("γ < 1 should fail the T_numa op only; reasons %q", []string{ops[0].reason, ops[1].reason, ops[2].reason})
	}
}

func TestTable3OpsPassAndMatchHarness(t *testing.T) {
	p := table3Untraced(t)
	if len(p.ops) != 3*len(harness.Table3Apps) {
		t.Fatalf("%d ops, want %d", len(p.ops), 3*len(harness.Table3Apps))
	}
	for _, o := range p.ops {
		if o.reason != "" {
			t.Errorf("%s failed: %s", o.label, o.reason)
		}
	}
	if e := p.paperErrMax(); !(e <= paperTolerance) {
		t.Errorf("paper_err_max %g > %g", e, paperTolerance)
	}

	rows, err := harness.Table3(harness.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rows {
		got := p.rows[i]
		if got.app != want.App || !reflect.DeepEqual(got.eval, want.Eval) {
			t.Errorf("row %d: benchmark %s %+v\nharness %s %+v", i, got.app, got.eval, want.App, want.Eval)
		}
	}
}

func TestTracedPassMatchesUntraced(t *testing.T) {
	// The traced table3 pass also uses another seed, which the Table 3
	// workloads must ignore.
	plain := table3Untraced(t)
	traced := measure(mustWorkload(t, "table3"), 2, &layerSink{}, nil)
	if plain.digest() != traced.digest() {
		t.Errorf("table3: traced seed-2 digest %s != untraced seed-1 digest %s", traced.digest(), plain.digest())
	}

	zipf := mustWorkload(t, "zipf-grid")
	a, b := measure(zipf, 1, nil, nil), measure(zipf, 1, &layerSink{}, nil)
	if a.digest() != b.digest() {
		t.Errorf("zipf-grid: traced digest %s != untraced digest %s", b.digest(), a.digest())
	}
	if c := measure(zipf, 2, nil, nil); c.digest() == a.digest() {
		t.Errorf("zipf-grid: seeds 1 and 2 gave the same digest %s", a.digest())
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEveryBenchmarkMetricIsPrintedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloadList {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}

	for trace, want := range [][]struct{ Name, Unit string }{
		convert(spec.EndToEnd), convert(spec.PerLayer),
	} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "zipf-grid", "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("trace %d: correct %v, attempted %d", trace, res.Correct, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: printed %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		hostSum := 0.0
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s printed as %+v (present %v), want unit %q", trace, m.Name, got, ok, m.Unit)
			}
			if !strings.Contains(out.String(), "metric "+m.Name+" ") {
				t.Errorf("trace %d: no metric line for %s", trace, m.Name)
			}
			if strings.HasPrefix(m.Name, "host.") && strings.HasSuffix(m.Name, "_frac") {
				hostSum += got.Value
			}
		}
		if trace == 1 && math.Abs(hostSum-1) > 1e-9 {
			t.Errorf("host.*_frac shares sum to %g, want 1", hostSum)
		}
	}
}

func convert(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).Load":           "runtime",
		"numasim/internal/vm.(*Context).Load32":            "vm",
		"numasim/internal/pmap.(*Pmap).Enter":              "pmap",
		"numasim/internal/cthreads.(*Runtime).Start.func1": "other",
		"numasim/internal/sim.heapPush[go.shape.*uint8]":   "sim",
		"slices.SortFunc[go.shape.[]numasim/internal/a.T]": "other",
		"sync.(*Mutex).Lock":                               "other",
		"":                                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestUnknownWorkloadIsRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func TestSpeedProbeSamplesAtMostOncePerInterval(t *testing.T) {
	p := newSpeedProbe()
	p.tick()
	p.tick()
	if len(p.samples) != 1 || p.wall <= 0 {
		t.Fatalf("two ticks within %v took %d samples, %v", calEvery, len(p.samples), p.wall)
	}
	if s := p.scale(); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("scale %g", s)
	}
	var none *speedProbe
	none.tick() // a nil probe is a no-op
}
