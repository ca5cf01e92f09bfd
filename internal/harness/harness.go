// Package harness regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// builds fresh machines, runs the paper's workloads under the paper's
// policies, and renders plain-text tables with the paper's published
// numbers alongside the measured ones.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/simtrace"
	"numasim/internal/workloads"
)

// Options configures the experiments.
type Options struct {
	// NProc is the number of processors for parallel runs (the paper's
	// Table 4 runs used 7).
	NProc int
	// Workers is the number of worker threads (default one per CPU).
	Workers int
	// Small selects reduced problem sizes (used by tests; the defaults
	// are already scaled down from the paper's hours-long runs).
	Small bool
	// Policy, when non-empty, overrides the placement policy for
	// single-policy experiments (the ablations, sweeps, mix, pressure and
	// availability runs). It accepts any registry spec ("decaythreshold",
	// "threshold:limit=2"; see policy.Usage). The experiments that fix
	// their own policies ignore it: table3, table4, falsesharing,
	// thresholdsweep, remote, policycompare and tournament. Empty keeps
	// each experiment's default, byte-identical.
	Policy string
	// AppSize, when positive, overrides the workload's primary size
	// parameter (see workloads.NewSized). Sweeps use it to keep repeated
	// runs quick.
	AppSize int
	// Parallelism bounds how many independent simulations run at once
	// (table rows, sweep points, the three runs inside an evaluation).
	// <= 0 selects runtime.NumCPU(). Simulated results are identical at
	// every setting; only wall-clock time changes.
	Parallelism int
	// TraceSink, when non-nil, is attached to every simulated machine the
	// experiments build. Runs execute concurrently, so the sink must be
	// safe for concurrent Emit (simtrace.CountingSink is). It feeds the
	// tables -timing event-count report; it never affects table contents.
	TraceSink simtrace.Sink
	// App selects the application for single-app experiments (the pressure
	// sweep; default Gfetch). Table experiments ignore it.
	App string
	// PressureFrames are the local-frame budgets the pressure sweep
	// measures (empty: DefaultPressureFrames).
	PressureFrames []int
	// LocalFrames, when positive, overrides the per-node local memory
	// size. Zero keeps the effectively-unbounded default, under which the
	// pressure machinery never engages.
	LocalFrames int
	// Topology selects the machine topology by name ("" or "ace" is the
	// paper's two-level ACE; see topology.Names for the others). Every
	// machine an experiment builds uses it.
	Topology string
	// Chaos configures fault injection (transient local-allocation
	// failures, delayed page moves, panic/stall crash drills) for every
	// run an experiment performs. The zero value is chaos off. Each run
	// builds its own injector from Chaos.Seed, so output is byte-identical
	// at every Parallelism.
	Chaos chaos.Config
	// Audit enables the NUMA manager's online auditor at this sampling
	// stride for every run (0 off, 1 full, N sampled).
	Audit int
	// Timeout is the wall-clock budget per supervised run; 0 means no
	// timeout. When it expires the supervisor stops the run's engine and
	// reports a timeout failure.
	Timeout time.Duration
	// Retries is how many times the supervisor re-runs a failed unit
	// before giving up (bounded retry; 0 = one attempt only).
	Retries int
	// ReproDir, when non-empty, is where the supervisor writes a repro
	// bundle for each failed run (seed, config, flags, trace, state dump,
	// ready-to-run command line).
	ReproDir string
	// KeepGoing lets parallel sweeps continue past failed runs and report
	// partial results with per-run error summaries instead of aborting on
	// the first failure. Setting ReproDir implies it.
	KeepGoing bool
	// StallLimit overrides the engine stall-watchdog threshold for every
	// run (0 keeps the engine default).
	StallLimit int
	// Command is the CLI invocation that produced these options, recorded
	// verbatim in repro bundles (e.g. "acesim -exp pressuresweep ...").
	Command string

	// onMachine, when non-nil, is invoked for every machine a run builds.
	// The supervisor installs it to reach engines for timeout teardown; it
	// may be called concurrently when Parallelism > 1.
	onMachine func(*ace.Machine)
}

// withDefaults fills in defaults.
func (o Options) withDefaults() Options {
	if o.NProc <= 0 {
		o.NProc = 7
	}
	if o.Workers <= 0 {
		o.Workers = o.NProc
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// config builds the machine configuration for the options.
func (o Options) config() ace.Config {
	cfg := ace.DefaultConfig()
	cfg.NProc = o.NProc
	// Lazily allocated frames make the full-size memories cheap, but the
	// small variant also shrinks them to keep test heaps tiny.
	if o.Small {
		cfg.GlobalFrames = 2048
		cfg.LocalFrames = 1024
	}
	if o.LocalFrames > 0 {
		cfg.LocalFrames = o.LocalFrames
	}
	cfg.Topology = o.Topology
	return cfg
}

// instance builds a fresh workload instance by table name, reporting
// unknown names as an error the experiment can propagate.
func (o Options) instance(name string) (metrics.Runner, error) {
	if o.Small {
		switch name {
		case "ParMult":
			return workloads.NewParMult(60, 80), nil
		case "Gfetch":
			return workloads.NewGfetch(12, 4), nil
		case "IMatMult":
			return workloads.NewIMatMult(24), nil
		case "Primes1":
			return workloads.NewPrimes1(4000), nil
		case "Primes2":
			return workloads.NewPrimes2(8000, true), nil
		case "Primes2-untuned":
			return workloads.NewPrimes2(8000, false), nil
		case "Primes3":
			return workloads.NewPrimes3(60000), nil
		case "FFT":
			return workloads.NewFFT(32), nil
		case "PlyTrace":
			return workloads.NewPlyTrace(160, 128, 128), nil
		case "Syscaller":
			return workloads.NewSyscaller(1200, 40), nil
		}
	}
	if name == "Syscaller" {
		return workloads.NewSyscaller(0, 0), nil
	}
	if o.AppSize > 0 {
		if w, err := workloads.NewSized(name, o.AppSize); err == nil {
			return w, nil
		}
	}
	return workloads.ByName(name)
}

// evaluator builds the three-run evaluator for the options; its per-run
// fields come from Spec, like every other run's.
func (o Options) evaluator() *metrics.Evaluator {
	s := o.Spec(metrics.RunSpec{})
	ev := metrics.NewEvaluator()
	ev.Config = o.config()
	ev.Workers = o.Workers
	ev.Parallelism = o.Parallelism
	ev.TraceSink, ev.Chaos, ev.OnMachine = s.TraceSink, s.Chaos, s.OnMachine
	ev.Audit, ev.StallLimit, ev.Forensics = s.Audit, s.StallLimit, s.Forensics
	return ev
}

// forensics reports whether runs should gather crash forensics (ring
// buffer + state dump on failure): whenever a supervisor feature or the
// auditor is on.
func (o Options) forensics() bool {
	return o.ReproDir != "" || o.Timeout > 0 || o.Retries > 0 || o.Audit > 0
}

// keepGoing reports whether sweeps should report partial results past
// failed runs.
func (o Options) keepGoing() bool { return o.KeepGoing || o.ReproDir != "" }

// Spec completes spec with the per-run fields the options own: the trace
// sink, chaos, the audit stride, the stall limit, forensics and the
// supervisor's machine hook. It is their only writer; every run an
// experiment makes takes them from here. All of them are zero for
// default options, so unsupervised runs are bit-for-bit unchanged.
func (o Options) Spec(spec metrics.RunSpec) metrics.RunSpec {
	spec.TraceSink = o.TraceSink
	spec.Chaos = o.Chaos
	spec.Audit = o.Audit
	spec.StallLimit = o.StallLimit
	spec.Forensics = o.forensics()
	spec.OnMachine = o.onMachine
	return spec
}

// spec builds one run's spec: the options' machine and workers under the
// affinity scheduler, changed by edit (nil: none), completed by Spec.
// When edit names no policy the run gets the -policy spec, or the
// paper's threshold; policies carry state, so each call makes a fresh
// one.
func (o Options) spec(edit func(*metrics.RunSpec)) (metrics.RunSpec, error) {
	spec := metrics.RunSpec{Config: o.config(), Workers: o.Workers, Sched: sched.Affinity}
	if edit != nil {
		edit(&spec)
	}
	spec = o.Spec(spec)
	var err error
	switch {
	case spec.Policy != nil: // the experiment's own
	case o.Policy == "":
		spec.Policy = policy.NewDefault()
	default:
		spec.Policy, err = policy.Parse(o.Policy)
	}
	return spec, err
}

// run runs w once under o.spec(edit).
func (o Options) run(w metrics.Runner, edit func(*metrics.RunSpec)) (metrics.RunResult, error) {
	spec, err := o.spec(edit)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return metrics.Run(w, spec)
}

// runApp is run for the named application.
func (o Options) runApp(app string, edit func(*metrics.RunSpec)) (metrics.RunResult, error) {
	w, err := o.instance(app)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return o.run(w, edit)
}

// Supervise runs one unit of work — an experiment row, or one of
// acesim's single-application runs — under the options' supervisor:
// panic recovery, wall-clock timeout, bounded retry, repro bundles on
// failure. fn receives the options to run with; the runs it makes
// through Spec report their machines to the timeout watchdog. With no
// supervision configured fn runs directly on o.
func (o Options) Supervise(label string, fn func(Options) error) error {
	sup := o.supervisor()
	if sup == nil {
		return fn(o)
	}
	return sup.Do(label, func(observe func(*ace.Machine)) error {
		oo := o
		oo.onMachine = observe
		return fn(oo)
	})
}

// Each runs fn(0..n-1) on the options' worker pool, each call one
// supervised unit named label(i) that receives the (defaulted) options
// to run with. Every index runs. With fail nil, or without -keep-going,
// Each returns the error of the smallest failing index; otherwise it
// hands each failure to fail in index order and returns nil, so the
// caller can render a partial result.
func (o Options) Each(n int, label func(i int) string, fn func(i int, o Options) error, fail func(i int, err error)) error {
	o = o.withDefaults()
	errs := NewPool(o.Parallelism).RunAll(n, func(i int) error {
		return o.Supervise(label(i), func(so Options) error { return fn(i, so) })
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		if fail == nil || !o.keepGoing() {
			return err
		}
		fail(i, err)
	}
	return nil
}

// compare runs one supervised unit per variant, named label-variant, and
// returns the runs in order; the first failure by index aborts.
func compare(opts Options, label string, variants []string, run func(i int, o Options) (metrics.RunResult, error)) ([]metrics.RunResult, error) {
	runs := make([]metrics.RunResult, len(variants))
	err := opts.Each(len(variants), func(i int) string { return label + "-" + variants[i] },
		func(i int, o Options) (err error) {
			runs[i], err = run(i, o)
			return err
		}, nil)
	return runs, err
}

// fmtF renders a float with sensible precision for the tables. It is
// generic over named float64 types (sim.Ticks and plain float64 render
// identically), so adopting unit types cannot change table bytes.
func fmtF[F ~float64](v F, prec int) string {
	if math.IsNaN(float64(v)) {
		return "na"
	}
	return fmt.Sprintf("%.*f", prec, float64(v))
}

// failedRun names one failed unit of a partial result.
type failedRun struct {
	Unit, Err string
}

// renderFailures renders the per-run error summaries appended to a
// partial table; it is empty — and the table bytes untouched — when
// every run succeeded.
func renderFailures(fails []failedRun) string {
	if len(fails) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("failed runs:\n")
	for _, f := range fails {
		// Only the first line: panic errors carry their stacks.
		msg, _, _ := strings.Cut(f.Err, "\n")
		fmt.Fprintf(&b, "  %-12s %s\n", f.Unit, msg)
	}
	return b.String()
}

// renderTable renders a fixed-width text table.
func renderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
