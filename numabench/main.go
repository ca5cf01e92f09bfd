// Command numabench is the repository's end-to-end benchmark: it runs one
// workload of simulations (table3, zipf-grid or table3-mesh8) back to
// back for a fixed host-time budget, checks every output, and prints the
// metrics BENCHMARK.json names, ending with one JSON result line.
//
//	numabench --workload table3 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it makes untraced passes and reports the end-to-end
// metrics; with --trace 1 it alternates untraced passes with traced ones
// (a counting simtrace sink plus a host CPU profile) and reports the
// per-layer metrics. Run it through run.sh from the repository root,
// which builds it first. README.md explains the workloads and what each
// metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"numasim/internal/simtrace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("numabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table3, zipf-grid or table3-mesh8")
	seed := fs.Uint64("seed", 1, "input seed (zipf-grid's Zipf.Seed; the Table 3 workloads have no seed)")
	seconds := fs.Int("seconds", 30, "host-time budget for the passes, in seconds")
	trace := fs.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced passes, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be positive, not %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "numabench:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "numabench:", err)
		return 1
	}
	fp, _ := json.Marshal(hostFingerprint(root))
	fmt.Fprintf(stdout, "numabench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host %s\n", fp)

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res = untracedRun(w, *seed, budget, stdout)
	} else {
		res, err = tracedRun(w, *seed, budget, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "numabench:", err)
			return 1
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-26s %-14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "numabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one pass of w, timing it on the host. A collection first
// keeps garbage from the previous pass out of this one's numbers. With a
// probe, calibration samples run between ops and their time is left out
// of the pass's wall and CPU time.
func measure(w workload, seed uint64, sink simtrace.Sink, probe *speedProbe) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var tick func()
	if probe != nil {
		probe.wall, probe.cpu = 0, 0
		tick = probe.tick
	}
	u0, t0 := readUsage(), time.Now()
	p := w.pass(seed, sink, tick)
	p.traced = sink != nil
	p.wall = time.Since(t0)
	p.cpu = readUsage().cpu - u0.cpu
	if probe != nil {
		p.wall -= probe.wall
		p.cpu -= probe.cpu
	}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// untracedRun repeats untraced passes, sampling the host's speed between
// ops, while another pass of median length still fits in the budget.
func untracedRun(w workload, seed uint64, budget time.Duration, out io.Writer) result {
	start := time.Now()
	probe := newSpeedProbe()
	var passes []pass
	for len(passes) == 0 || time.Since(start)+medianWall(passes)+probe.wall <= budget {
		passes = append(passes, measure(w, seed, nil, probe))
	}
	scale := probe.scale()
	fmt.Fprintf(out, "calibration samples=%d scale=%.4f\n", len(probe.samples), scale)
	res := verdict(w, passes, out)
	res.Metrics = endToEnd(w, passes, scale)
	return res
}

// tracedRun alternates untraced and traced passes, so the tracing
// overhead compares passes measured under the same host conditions.
func tracedRun(w workload, seed uint64, budget time.Duration, out io.Writer) (result, error) {
	start := time.Now()
	var plain, traced []pass
	var sinks []*layerSink
	samples := map[string]int64{}
	for len(traced) == 0 || time.Since(start)+medianWall(plain)+medianWall(traced) <= budget {
		plain = append(plain, measure(w, seed, nil, nil))
		sink := &layerSink{}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		traced = append(traced, measure(w, seed, sink, nil))
		pprof.StopCPUProfile()
		if err := leafSamples(prof.Bytes(), samples); err != nil {
			return result{}, err
		}
		sinks = append(sinks, sink)
	}
	res := verdict(w, append(plain, traced...), out)
	res.Metrics = perLayer(plain, traced, sinks, samples)
	return res, nil
}

// verdict counts attempted and failed ops over all passes, prints the
// digest and every failed op of the first pass with its reason, and
// decides correctness: every pass must reproduce the first one's
// simulated statistics exactly, and the ACE Table 3 — the paper's own
// setting — must pass every op and stay within paperTolerance of the
// paper.
func verdict(w workload, passes []pass, out io.Writer) result {
	res := result{Correct: true}
	want := passes[0].digest()
	fmt.Fprintf(out, "digest %s %s\n", w.name, want)
	for i, p := range passes {
		fmt.Fprintf(out, "pass %d traced=%v wall_s=%.4f cpu_s=%.4f setup_s=%.5f\n",
			i, p.traced, p.wall.Seconds(), p.cpu.Seconds(), p.totals().setup.Seconds())
		if got := p.digest(); got != want {
			res.Correct = false
			fmt.Fprintf(out, "check: pass %d digest %s differs from pass 0 digest %s\n", i, got, want)
		}
		for _, o := range p.ops {
			res.Attempted++
			if o.reason != "" {
				res.Failed++
				if i == 0 {
					fmt.Fprintf(out, "fail %s %s: %s\n", w.name, o.label, o.reason)
				}
			}
		}
	}
	if w.name == "table3" {
		if e := passes[0].paperErrMax(); !(e <= paperTolerance) {
			res.Correct = false
			fmt.Fprintf(out, "check: paper_err_max %.4f exceeds %.2f\n", e, paperTolerance)
		}
		if res.Failed > 0 {
			res.Correct = false
			fmt.Fprintf(out, "check: %d of the ACE Table 3's ops failed\n", res.Failed)
		}
	}
	return res
}

// paperTolerance bounds the ACE Table 3's distance from the paper: the
// reproduction holds every α, β and γ within 0.05, and the extra 0.01
// absorbs rounding of the published two-digit values.
const paperTolerance = 0.06
