package harness

import (
	"fmt"
	"strings"

	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

// ---------------------------------------------------------------------
// E8: false sharing — the §4.2 Primes2 tuning experiment.
// ---------------------------------------------------------------------

// FalseSharingResult compares the untuned and tuned Primes2.
type FalseSharingResult struct {
	Untuned, Tuned metrics.Eval
}

// FalseSharing reproduces the §4.2 experiment: copying the divisors out of
// the writably-shared output vector into private memory raised Primes2's α
// from 0.66 to 1.00.
func FalseSharing(opts Options) (FalseSharingResult, error) {
	if err := refuseHealth(opts, "falsesharing"); err != nil {
		return FalseSharingResult{}, err
	}
	variants := []string{"Primes2-untuned", "Primes2"}
	evals := make([]metrics.Eval, len(variants))
	err := opts.Each(len(variants), func(i int) string { return "falsesharing-" + variants[i] },
		func(i int, o Options) (err error) {
			evals[i], err = o.evaluator().Evaluate(func() (metrics.Runner, error) { return o.instance(variants[i]) })
			return err
		}, nil)
	if err != nil {
		return FalseSharingResult{}, err
	}
	return FalseSharingResult{Untuned: evals[0], Tuned: evals[1]}, nil
}

// Render formats the experiment.
func (r FalseSharingResult) Render() string {
	headers := []string{"Primes2 variant", "Tnuma", "alpha", "gamma", "local refs", "| paper alpha"}
	rows := [][]string{
		{"untuned (shared divisors)", fmtF(r.Untuned.Tnuma, 2), fmtF(r.Untuned.Alpha, 2),
			fmtF(r.Untuned.Gamma, 2), fmtF(r.Untuned.MeasuredLocalFrac, 2), "0.66"},
		{"tuned (private divisors)", fmtF(r.Tuned.Tnuma, 2), fmtF(r.Tuned.Alpha, 2),
			fmtF(r.Tuned.Gamma, 2), fmtF(r.Tuned.MeasuredLocalFrac, 2), "1.00"},
	}
	return "False sharing (§4.2): Primes2 before and after divisor privatization\n" +
		renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// E9: pin-threshold sweep (§2.3.2's boot-time parameter).
// ---------------------------------------------------------------------

// SweepRow is one point of a parameter sweep. Times are virtual seconds
// (sim.Ticks).
type SweepRow struct {
	Param        string
	Tnuma, Snuma sim.Ticks
	Alpha, Gamma float64
	Pins, Moves  uint64
}

// sweep measures app once per point, each point one supervised unit
// whose run spec edit(i) changes, and tabulates the runs in order; the
// first failure aborts.
func sweep(opts Options, label, app string, params []string, edit func(i int, s *metrics.RunSpec)) ([]SweepRow, error) {
	runs, err := compare(opts, label+"-"+app, params, func(i int, o Options) (metrics.RunResult, error) {
		return o.runApp(app, func(s *metrics.RunSpec) { edit(i, s) })
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(runs))
	for i, res := range runs {
		rows[i] = SweepRow{
			Param: params[i],
			Tnuma: res.UserSec, Snuma: res.SysSec,
			Pins: res.NUMA.Pins, Moves: res.NUMA.Moves,
		}
	}
	return rows, nil
}

// ThresholdSweep measures a workload under varying move limits; limit<0
// selects the never-pin policy.
func ThresholdSweep(opts Options, app string, limits []int) ([]SweepRow, error) {
	params := make([]string, len(limits))
	for i, lim := range limits {
		params[i] = fmt.Sprintf("%d", lim)
		if lim < 0 {
			params[i] = "never-pin"
		}
	}
	return sweep(opts, "thresholdsweep", app, params, func(i int, s *metrics.RunSpec) {
		s.Policy = policy.NewThreshold(max(limits[i], 0))
		if limits[i] < 0 {
			s.Policy = policy.NeverPin()
		}
	})
}

// RenderSweepCSV renders a sweep as CSV (one header line plus one line per
// point), ready for plotting.
func RenderSweepCSV(param string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,user_sec,sys_sec,pins,moves\n", param)
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%d,%d\n", r.Param, r.Tnuma, r.Snuma, r.Pins, r.Moves)
	}
	return b.String()
}

// RenderSweep renders a sweep result.
func RenderSweep(title, param string, rows []SweepRow) string {
	headers := []string{param, "Tuser", "Tsys", "pins", "moves"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Param, fmtF(r.Tnuma, 3), fmtF(r.Snuma, 3),
			fmt.Sprintf("%d", r.Pins), fmt.Sprintf("%d", r.Moves)})
	}
	return title + "\n" + renderTable(headers, body)
}

// ---------------------------------------------------------------------
// E11: processor affinity (§4.7).
// ---------------------------------------------------------------------

// AffinityResult compares the paper's affinity scheduler against the
// original single-queue behaviour.
type AffinityResult struct {
	App                string
	Affinity, Hopping  metrics.RunResult
	AffLocal, HopLocal float64
}

// AffinityCompare runs a workload under both scheduling disciplines.
func AffinityCompare(opts Options, app string) (AffinityResult, error) {
	modes := []sched.Mode{sched.Affinity, sched.NoAffinity}
	runs, err := compare(opts, "affinity-"+app, []string{"affinity", "noaffinity"},
		func(i int, o Options) (metrics.RunResult, error) {
			return o.runApp(app, func(s *metrics.RunSpec) { s.Sched = modes[i] })
		})
	if err != nil {
		return AffinityResult{}, err
	}
	aff, hop := runs[0], runs[1]
	return AffinityResult{
		App: app, Affinity: aff, Hopping: hop,
		AffLocal: aff.Refs.LocalFraction(),
		HopLocal: hop.Refs.LocalFraction(),
	}, nil
}

// Render formats the comparison.
func (r AffinityResult) Render() string {
	headers := []string{"scheduler", "Tuser", "Tsys", "local refs", "moves", "pins"}
	rows := [][]string{
		{"affinity (paper §4.7)", fmtF(r.Affinity.UserSec, 3), fmtF(r.Affinity.SysSec, 3),
			fmtF(r.AffLocal, 3), fmt.Sprintf("%d", r.Affinity.NUMA.Moves), fmt.Sprintf("%d", r.Affinity.NUMA.Pins)},
		{"single queue (original)", fmtF(r.Hopping.UserSec, 3), fmtF(r.Hopping.SysSec, 3),
			fmtF(r.HopLocal, 3), fmt.Sprintf("%d", r.Hopping.NUMA.Moves), fmt.Sprintf("%d", r.Hopping.NUMA.Pins)},
	}
	return fmt.Sprintf("Processor affinity (§4.7) on %s\n", r.App) + renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// E12: the Unix master (§4.6).
// ---------------------------------------------------------------------

// UnixMasterResult compares runs with and without the Unix-master effect.
type UnixMasterResult struct {
	App           string
	Off, On       metrics.RunResult
	OffP0, OnP0   uint64 // references made by processor 0
	OffLoc, OnLoc float64
}

// UnixMasterCompare runs a workload with syscalls funnelled to CPU 0.
func UnixMasterCompare(opts Options, app string) (UnixMasterResult, error) {
	runs, err := compare(opts, "unixmaster-"+app, []string{"home", "master"},
		func(i int, o Options) (metrics.RunResult, error) {
			return o.runApp(app, func(s *metrics.RunSpec) { s.UnixMast = i == 1 })
		})
	if err != nil {
		return UnixMasterResult{}, err
	}
	off, on := runs[0], runs[1]
	return UnixMasterResult{
		App: app, Off: off, On: on,
		OffLoc: off.Refs.LocalFraction(), OnLoc: on.Refs.LocalFraction(),
	}, nil
}

// Render formats the comparison.
func (r UnixMasterResult) Render() string {
	return fmt.Sprintf(`Unix master (§4.6) on %s
  syscalls on home CPU:  user %.3fs, %.1f%% local references
  syscalls on master:    user %.3fs, %.1f%% local references
`, r.App, r.Off.UserSec, 100*r.OffLoc, r.On.UserSec, 100*r.OnLoc)
}

// ---------------------------------------------------------------------
// Replication ablation: the paper's protocol replicates read-only pages;
// Li-style pure migration keeps a single copy. IMatMult, which
// "emphasizes the value of replicating data that is writable, but that is
// never written", shows the difference directly.
// ---------------------------------------------------------------------

// ReplicationResult compares runs with and without read replication.
type ReplicationResult struct {
	App           string
	With, Without metrics.RunResult
}

// ReplicationCompare measures a workload with replication on and off.
func ReplicationCompare(opts Options, app string) (ReplicationResult, error) {
	runs, err := compare(opts, "replication-"+app, []string{"replicate", "single-copy"},
		func(i int, o Options) (metrics.RunResult, error) {
			return o.runApp(app, func(s *metrics.RunSpec) { s.NoReplication = i == 1 })
		})
	if err != nil {
		return ReplicationResult{}, err
	}
	return ReplicationResult{App: app, With: runs[0], Without: runs[1]}, nil
}

// Render formats the comparison.
func (r ReplicationResult) Render() string {
	headers := []string{"protocol", "Tuser", "Tsys", "copies", "pins"}
	rows := [][]string{
		{"replicate read-only (paper)", fmtF(r.With.UserSec, 3), fmtF(r.With.SysSec, 3),
			fmt.Sprintf("%d", r.With.NUMA.Copies), fmt.Sprintf("%d", r.With.NUMA.Pins)},
		{"single copy (migration only)", fmtF(r.Without.UserSec, 3), fmtF(r.Without.SysSec, 3),
			fmt.Sprintf("%d", r.Without.NUMA.Copies), fmt.Sprintf("%d", r.Without.NUMA.Pins)},
	}
	return fmt.Sprintf("Read replication ablation on %s\n", r.App) + renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// §4.4 remote references: pragma-placed pages at a home processor versus
// automatic placement, on a producer with occasional consumers — the
// "data used frequently by one processor and infrequently by others" case.
// ---------------------------------------------------------------------

// RemoteResult compares automatic placement against a remote pragma.
type RemoteResult struct {
	Auto, Remote metrics.RunResult
}

// RemoteCompare runs the asymmetric-sharing probe twice.
func RemoteCompare(opts Options) (RemoteResult, error) {
	runs, err := compare(opts, "remote", []string{"auto", "pragma"},
		func(i int, o Options) (metrics.RunResult, error) {
			return o.run(workloads.NewHomeData(0, 0, i == 1),
				func(s *metrics.RunSpec) { s.Policy = policy.NewPragma(nil) })
		})
	if err != nil {
		return RemoteResult{}, err
	}
	return RemoteResult{Auto: runs[0], Remote: runs[1]}, nil
}

// Render formats the comparison.
func (r RemoteResult) Render() string {
	headers := []string{"placement", "Tuser", "Tsys", "moves", "pins"}
	rows := [][]string{
		{"automatic (threshold)", fmtF(r.Auto.UserSec, 3), fmtF(r.Auto.SysSec, 3),
			fmt.Sprintf("%d", r.Auto.NUMA.Moves), fmt.Sprintf("%d", r.Auto.NUMA.Pins)},
		{"remote pragma (§4.4)", fmtF(r.Remote.UserSec, 3), fmtF(r.Remote.SysSec, 3),
			fmt.Sprintf("%d", r.Remote.NUMA.Moves), fmt.Sprintf("%d", r.Remote.NUMA.Pins)},
	}
	return "Remote references (§4.4) on an asymmetric producer/consumer\n" + renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// Policy comparison: the paper's never-reconsider Threshold against the
// §5 Reconsider extension and a PLATINUM-style freeze/defrost policy, on
// a workload whose sharing pattern changes between phases.
// ---------------------------------------------------------------------

// PolicyRow is one policy's result on the phase-change probe.
type PolicyRow struct {
	Policy    string
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	LocalFrac float64
	Pins      uint64
}

// PolicyCompare runs the Phased probe under several placement policies,
// given as registry specs.
func PolicyCompare(opts Options) ([]PolicyRow, error) {
	specs := []string{"threshold", "reconsider:period=8", "freezedefrost"}
	runs, err := compare(opts, "policycompare", specs, func(i int, o Options) (metrics.RunResult, error) {
		pol, err := policy.Parse(specs[i])
		if err != nil {
			return metrics.RunResult{}, err
		}
		return o.run(workloads.NewPhased(0, 0, 0), func(s *metrics.RunSpec) { s.Policy = pol })
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(runs))
	for i, res := range runs {
		rows[i] = PolicyRow{
			Policy:    res.Policy,
			UserSec:   res.UserSec,
			SysSec:    res.SysSec,
			LocalFrac: res.Refs.LocalFraction(),
			Pins:      res.NUMA.Pins,
		}
	}
	return rows, nil
}

// RenderPolicyCompare formats the comparison.
func RenderPolicyCompare(rows []PolicyRow) string {
	headers := []string{"policy", "Tuser", "Tsys", "local refs", "pins"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Policy, fmtF(r.UserSec, 3), fmtF(r.SysSec, 3),
			fmtF(r.LocalFrac, 3), fmt.Sprintf("%d", r.Pins)})
	}
	return "Placement policies on a phase-changing workload (shared phase, then partitioned phase)" + "\n" +
		renderTable(headers, body)
}

// ---------------------------------------------------------------------
// Page-size and G/L sweeps (model ablations).
// ---------------------------------------------------------------------

// PageSizeSweep measures a workload at several page sizes.
func PageSizeSweep(opts Options, app string, sizes []int) ([]SweepRow, error) {
	params := make([]string, len(sizes))
	for i, size := range sizes {
		params[i] = fmt.Sprintf("%d", size)
	}
	return sweep(opts, "pagesizesweep", app, params, func(i int, s *metrics.RunSpec) {
		s.Config.PageSize = sizes[i]
	})
}

// GLSweep measures a workload with the global-memory latencies scaled by
// the given factors (exploring machines with different G/L ratios).
func GLSweep(opts Options, app string, factors []float64) ([]SweepRow, error) {
	params := make([]string, len(factors))
	for i, f := range factors {
		params[i] = fmt.Sprintf("%.2f", f)
	}
	return sweep(opts, "glsweep", app, params, func(i int, s *metrics.RunSpec) {
		s.Config.Cost.GlobalFetch = sim.Time(float64(s.Config.Cost.GlobalFetch) * factors[i])
		s.Config.Cost.GlobalStore = sim.Time(float64(s.Config.Cost.GlobalStore) * factors[i])
	})
}

// QuantumSweep measures sensitivity to the scheduling quantum (an artifact
// knob of the simulation: finer quanta interleave processors more).
func QuantumSweep(opts Options, app string, quanta []sim.Time) ([]SweepRow, error) {
	params := make([]string, len(quanta))
	for i, q := range quanta {
		params[i] = q.String()
	}
	return sweep(opts, "quantumsweep", app, params, func(i int, s *metrics.RunSpec) {
		s.Config.Quantum = quanta[i]
	})
}
