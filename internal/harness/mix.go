package harness

import (
	"fmt"
	"strings"

	"numasim/internal/cthreads"
	"numasim/internal/metrics"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

// MixResult reports a multiprogrammed run: several applications executing
// concurrently, each in its own task, on one machine. The paper's
// introduction claims OS-level placement "address[es] the locality needs
// of the entire application mix, a task that cannot be accomplished
// through independent modification of individual applications".
type MixResult struct {
	Apps      []string
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	LocalFrac float64
	Pins      uint64
	Moves     uint64
}

// MixRun executes the named applications concurrently under the
// options' policy (default: the paper's), splitting the machine's
// processors between them. The machine, kernel and scheduler come from
// metrics.Build with the run spec any single run would get, and the mix
// is one supervised unit. Every application's own verification must
// pass.
func MixRun(opts Options, apps []string) (MixResult, error) {
	r := MixResult{Apps: apps}
	err := opts.Each(1, func(int) string { return "mix" }, func(_ int, o Options) error {
		spec, err := o.spec(nil)
		if err != nil {
			return err
		}
		sys, err := metrics.Build(spec)
		if err != nil {
			return err
		}
		machine, kernel := sys.Machine, sys.Kernel
		var finishes []func() error
		for _, app := range apps {
			inst, err := o.instance(app)
			if err != nil {
				return err
			}
			w, ok := inst.(workloads.Starter)
			if !ok {
				return fmt.Errorf("harness: %s cannot run in a mix", app)
			}
			rt := cthreads.NewShared(kernel, sys.Runtime.Scheduler(), app)
			finishes = append(finishes, w.Start(rt, max(spec.Config.NProc/len(apps), 1)))
		}
		if err := machine.Engine().Run(); err != nil {
			return err
		}
		for i, fin := range finishes {
			if err := fin(); err != nil {
				return fmt.Errorf("harness: mix member %s: %w", apps[i], err)
			}
		}
		refs := machine.TotalRefs()
		ns := kernel.NUMA().Stats()
		r.UserSec = machine.Engine().TotalUserTime().Ticks()
		r.SysSec = machine.Engine().TotalSysTime().Ticks()
		r.LocalFrac = refs.LocalFraction()
		r.Pins, r.Moves = ns.Pins, ns.Moves
		return nil
	}, nil)
	if err != nil {
		return MixResult{}, err
	}
	return r, nil
}

// Render formats the mix run.
func (r MixResult) Render() string {
	return fmt.Sprintf(`Application mix: %s running concurrently (each verified)
  user %.3fs  sys %.3fs  %.1f%% of references local  %d pins  %d moves
`, strings.Join(r.Apps, " + "), r.UserSec, r.SysSec, 100*r.LocalFrac, r.Pins, r.Moves)
}
