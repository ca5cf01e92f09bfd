// Command acesim runs one or more of the paper's applications on the
// simulated ACE under a chosen NUMA policy and reports timing, placement
// and reference statistics — optionally with a reference trace (sharing
// classes, the busiest pages and false-sharing analysis, §4.2, §5) and a
// structured event trace exported as Chrome trace-event JSON for
// Perfetto.
//
// Usage:
//
//	acesim -app IMatMult [-policy threshold] [-nproc 7]
//	       [-topology ace|4socket|mesh8]
//	       [-workers N] [-sched affinity] [-trace]
//	       [-trace-out FILE] [-unixmaster] [-pagesize N] [-size N]
//	       [-perproc] [-replication=false] [-parallel N]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// Run acesim -h for the full flag set (the synopsis it prints names
// every flag, and a test keeps it that way).
//
// -app accepts a comma-separated list (names are case-insensitive); the
// simulations run concurrently (bounded by -parallel; results are
// identical at every setting) and the reports print in the order given.
//
// -trace appends the per-page reference trace's report: sharing classes,
// false sharing and the ten busiest pages. -trace-out saves the
// structured event trace as Chrome trace-event JSON, loadable at
// ui.perfetto.dev (one track per processor, async tracks for page
// lifetimes) and summarized by traceview; it requires a single -app.
//
// Each application runs through metrics.Run, the same run assembly the
// tables command measures with.
//
// -exp NAME runs a harness-registry experiment instead of a single app
// (the same registry the tables command prints from; -exp list names
// them); -size sets the swept application's problem size. The pressure
// sweep takes -frames for its local-frame budgets, and the
// -chaos-seed/-chaos-fail/-chaos-delay flags enable seeded fault
// injection.
//
// Policies are registry specs of the form "name:key=val,..." (see
// policy.Usage): threshold (default), allglobal, alllocal, neverpin,
// pragma, reconsider, freezedefrost, decaythreshold, classifier.
// Parameters ride on the spec ("threshold:limit=2"). Apps: ParMult,
// Gfetch, IMatMult, Primes1, Primes2, Primes2-untuned, Primes3, FFT,
// PlyTrace, plus the Phased and Zipf policy probes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/cliflags"
	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
	"numasim/internal/trace"
	"numasim/internal/workloads"
)

// runOpts carries the per-run configuration shared by every -app entry:
// the run spec (its policy aside: policies carry state, so each run
// parses a fresh one) and the report's optional parts.
type runOpts struct {
	spec      metrics.RunSpec
	policy    string
	size      int
	doTrace   bool
	chromeOut string
	perProc   bool
}

// busiestPages is how many pages the -trace report lists.
const busiestPages = 10

// runOne simulates one application and returns its rendered report.
// o.spec already carries the supervisor's knobs for this attempt.
func runOne(app string, o runOpts) (string, error) {
	var w workloads.Workload
	var err error
	if o.size > 0 {
		w, err = workloads.NewSized(app, o.size)
	} else {
		w, err = workloads.ByName(app)
	}
	if err != nil {
		return "", err
	}
	spec := o.spec
	if spec.Policy, err = policy.Parse(o.policy); err != nil {
		return "", err
	}
	var events *simtrace.ListSink
	if o.chromeOut != "" {
		events = &simtrace.ListSink{}
		spec.TraceSink = events
	}
	var machine *ace.Machine
	var collector *trace.Collector
	observe := spec.OnMachine
	spec.OnMachine = func(m *ace.Machine) {
		machine = m
		if o.doTrace {
			collector = trace.New(m.PageShift(), true)
			m.RefTrace = collector.Record
		}
		if observe != nil {
			observe(m)
		}
	}
	res, err := metrics.Run(w, spec)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	eng := machine.Engine()
	fmt.Fprintf(&b, "%s on %d CPUs under %s (%s scheduler)\n", res.Workload, res.NProc, res.Policy, spec.Sched)
	fmt.Fprintf(&b, "  user time:   %v\n", eng.TotalUserTime())
	fmt.Fprintf(&b, "  system time: %v\n", eng.TotalSysTime())
	fmt.Fprintf(&b, "  references:  %d (%.1f%% local)\n", res.Refs.Total(), 100*res.Refs.LocalFraction())
	fmt.Fprintf(&b, "  faults:      %d\n", res.Faults)
	ns := res.NUMA
	fmt.Fprintf(&b, "  protocol:    %d copies, %d syncs, %d flushes, %d moves, %d pins\n",
		ns.Copies, ns.Syncs, ns.Flushes, ns.Moves, ns.Pins)
	var aliasDrops uint64
	for i := 0; i < machine.NProc(); i++ {
		aliasDrops += machine.MMU(i).Stats().AliasDrops
	}
	fmt.Fprintf(&b, "  mmu:         %d alias drops (Rosetta one-VA-per-frame rule)\n", aliasDrops)
	vs := res.VM
	fmt.Fprintf(&b, "  paging:      %d zero-fills, %d pageouts, %d pageins, %d COW copies\n",
		vs.ZeroFillFaults, vs.Pageouts, vs.Pageins, vs.COWCopies)
	if res.Links != nil {
		fmt.Fprintf(&b, "  interconnect (%s):\n", machine.Spec().Name())
		for _, l := range res.Links {
			fmt.Fprintf(&b, "    %-8s %8d xfers %12d bytes  busy %v  queued %v\n",
				l.Name, l.Xfers, l.Bytes, l.Service, l.Waited)
		}
	}
	if o.perProc {
		fmt.Fprintln(&b, "  per processor:")
		for i := 0; i < machine.NProc(); i++ {
			r := machine.Proc(i).Refs()
			fmt.Fprintf(&b, "    cpu%-2d  local %9d  global %9d  remote %7d  faults %6d\n",
				i, r.LocalFetch+r.LocalStore, r.GlobalFetch+r.GlobalStore,
				r.RemoteFetch+r.RemoteStore, machine.Proc(i).Faults)
		}
	}
	if collector != nil {
		fmt.Fprintln(&b)
		b.WriteString(collector.Summarize().Render())
		b.WriteString(collector.RenderBusiest(busiestPages))
	}
	if events != nil {
		f, err := os.Create(o.chromeOut)
		if err != nil {
			return "", err
		}
		meta := simtrace.ChromeMeta{NProc: machine.NProc(), Label: res.Workload}
		if err := simtrace.WriteChrome(f, events.Events(), meta); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "event trace (%d events) written to %s — load it at ui.perfetto.dev\n",
			len(events.Events()), o.chromeOut)
	}
	return b.String(), nil
}

// usageText is the synopsis -h prints before the flag defaults. The
// usage test asserts it mentions every registered flag, so a flag
// cannot be added without extending it.
const usageText = `Usage: acesim [flags]

Simulate the paper's applications on the ACE under a NUMA placement
policy and report timing, placement and reference statistics.

  acesim -app IMatMult[,Gfetch,...] [-policy SPEC] [-nproc N]
         [-topology ace|4socket|mesh8] [-workers N]
         [-sched affinity|noaffinity] [-pagesize BYTES] [-size N]
         [-unixmaster] [-perproc] [-replication=false] [-parallel N]
  acesim -trace [-trace-out FILE]                       reference/event traces
  acesim -exp NAME [-frames LIST]                       registry experiments (-exp list)
  acesim -chaos-seed N -chaos-fail P -chaos-delay P     seeded fault injection
         -chaos-panic-at D -chaos-stall-at D            crash/stall drills
  acesim -chaos-node-fail 2@10ms-60ms                   degraded-mode failure
         -chaos-link-fail node0-node1@5msx4-9ms         schedules (virtual time)
  acesim -audit N -timeout D -retries N                 supervision: auditing,
         -repro-dir DIR -keep-going -stall-limit N      repro bundles, watchdogs
  acesim -cpuprofile FILE -memprofile FILE              host profiling

Flags:
`

// run is the testable entry point: it parses args (without the program
// name) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usageText)
		fs.PrintDefaults()
	}
	app := fs.String("app", "IMatMult", "application to run, or a comma-separated list (case-insensitive)")
	polName := fs.String("policy", "threshold", "placement policy, as a registry spec like decaythreshold or threshold:limit=2")
	nproc := fs.Int("nproc", 7, "number of processors")
	topo := fs.String("topology", "", "machine topology: ace (default), "+strings.Join(topology.Names()[1:], ", "))
	workers := fs.Int("workers", 0, "worker threads (default: one per processor)")
	schedName := fs.String("sched", "affinity", "scheduler: affinity or noaffinity")
	doTrace := fs.Bool("trace", false, "collect a reference trace and report sharing classes and the busiest pages")
	chromeOut := fs.String("trace-out", "", "save the structured event trace to this file as Chrome trace-event JSON (Perfetto)")
	unixMaster := fs.Bool("unixmaster", false, "funnel system calls to processor 0 (§4.6)")
	pageSize := fs.Int("pagesize", 4096, "page size in bytes")
	size := fs.Int("size", 0, "problem size (0: workload default); units for ParMult, pages for Gfetch, matrix side for IMatMult/FFT, limit for Primes1-3, triangles for PlyTrace")
	perProc := fs.Bool("perproc", false, "report per-processor reference counts")
	replication := fs.Bool("replication", true, "replicate read-only pages (disable for the Li-style migration ablation)")
	parallel := fs.Int("parallel", 0, "simulations to run concurrently when -app lists several (0: one per host CPU; results are identical at every setting)")
	exp := fs.String("exp", "", "run a harness experiment instead of a single app (list: print the registry); -app, -size, -nproc, -workers and -parallel apply")
	common := cliflags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := common.StartProfiling()
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "acesim:", err)
		}
	}()

	mode, err := sched.ParseMode(*schedName)
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}

	// The shared flags (chaos, supervision, -frames) land in harness
	// options. The -app runs loop through opts.Each, which supervises
	// them (timeout, retries, repro bundles), and take their chaos and
	// robustness fields from opts.Spec; with none of the supervision
	// flags set, each simulation runs directly.
	opts := harness.Options{
		NProc: *nproc, Workers: *workers, Topology: *topo, AppSize: *size,
		Parallelism: *parallel, Command: "acesim " + strings.Join(args, " "),
	}
	if err := common.Apply(&opts); err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}

	if *exp != "" {
		// -app and -policy have single-run defaults (IMatMult, threshold)
		// that must not override an experiment's own choices; only pass
		// them through when the user actually gave them.
		if flagWasSet(fs, "app") {
			opts.App = *app
		}
		if flagWasSet(fs, "policy") {
			opts.Policy = *polName
		}
		return runExperiment(*exp, opts, stdout, stderr)
	}

	apps := strings.Split(*app, ",")
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
	}
	if len(apps) > 1 && *chromeOut != "" {
		fmt.Fprintln(stderr, "acesim: -trace-out requires a single -app (the file would be overwritten)")
		return 1
	}

	opts.App = *app
	cfg := ace.DefaultConfig()
	cfg.NProc = *nproc
	cfg.PageSize = *pageSize
	cfg.Topology = *topo
	o := runOpts{
		spec: metrics.RunSpec{
			Config: cfg, Workers: *workers, Sched: mode,
			UnixMast: *unixMaster, NoReplication: !*replication,
		},
		policy: *polName, size: *size,
		doTrace: *doTrace, chromeOut: *chromeOut, perProc: *perProc,
	}

	// Run every app concurrently (bounded), each a supervised unit, buffer
	// the reports, and print them in the order given on the command line.
	// Under -keep-going a failed app's report is its error's first line.
	reports := make([]string, len(apps))
	failed := false
	err = opts.Each(len(apps), func(i int) string { return apps[i] }, func(i int, so harness.Options) error {
		oo := o
		oo.spec = so.Spec(o.spec)
		rep, err := runOne(apps[i], oo)
		if err != nil {
			return fmt.Errorf("%s: %w", apps[i], err)
		}
		reports[i] = rep
		return nil
	}, func(i int, err error) {
		failed = true
		fmt.Fprintln(stderr, "acesim:", err)
		msg, _, _ := strings.Cut(err.Error(), "\n")
		reports[i] = fmt.Sprintf("%s: failed: %v\n", apps[i], msg)
	})
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 1
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, rep)
	}
	if failed {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
