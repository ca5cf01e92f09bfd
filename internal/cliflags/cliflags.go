// Package cliflags defines the flags the acesim and tables commands
// share — seeded fault injection and failure schedules (-chaos-*),
// supervision (-audit, -timeout, -retries, -repro-dir, -keep-going,
// -stall-limit), the pressure sweep's -frames, and host profiling
// (-cpuprofile, -memprofile) — once, so both commands bind the same
// names, defaults and help text and turn them into harness options the
// same way.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"numasim/internal/chaos"
	"numasim/internal/harness"
	"numasim/internal/profiling"
	"numasim/internal/sim"
)

// Common holds the shared flags' values after parsing.
type Common struct {
	frames        string
	chaosSeed     int64
	chaosFail     float64
	chaosDelay    float64
	chaosPanicAt  time.Duration
	chaosStallAt  time.Duration
	chaosNodeFail string
	chaosLinkFail string
	audit         int
	timeout       time.Duration
	retries       int
	reproDir      string
	keepGoing     bool
	stallLimit    int
	cpuProf       string
	memProf       string
}

// Bind registers the shared flags on fs.
func Bind(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.frames, "frames", "", "comma-separated local-frame budgets for the pressure sweep")
	fs.Int64Var(&c.chaosSeed, "chaos-seed", 0, "seed for fault injection (used when a -chaos probability is set)")
	fs.Float64Var(&c.chaosFail, "chaos-fail", 0, "probability a local frame allocation transiently fails (0 disables)")
	fs.Float64Var(&c.chaosDelay, "chaos-delay", 0, "probability a page move is delayed (0 disables)")
	fs.DurationVar(&c.chaosPanicAt, "chaos-panic-at", 0, "inject one panic at this virtual time (crash drill; 0 disables)")
	fs.DurationVar(&c.chaosStallAt, "chaos-stall-at", 0, "inject one virtual-time stall at this virtual time (watchdog drill; 0 disables)")
	fs.StringVar(&c.chaosNodeFail, "chaos-node-fail", "", "node failure schedule: comma-separated NODE@OFF[-ON] virtual times, e.g. 2@10ms-60ms")
	fs.StringVar(&c.chaosLinkFail, "chaos-link-fail", "", "link failure schedule: comma-separated LINK@AT[xFACTOR][-RESTORE], e.g. node0-node1@5msx4-9ms")
	fs.IntVar(&c.audit, "audit", 0, "online protocol-audit sampling stride (0: off, 1: audit every protocol action, N: sampled); any N > 0 also fails a run whose links break the closed-system bound")
	fs.DurationVar(&c.timeout, "timeout", 0, "wall-clock budget per supervised run (0: none)")
	fs.IntVar(&c.retries, "retries", 0, "re-run a failed unit up to this many times before giving up")
	fs.StringVar(&c.reproDir, "repro-dir", "", "write a repro bundle for each failed run into this directory (implies -keep-going)")
	fs.BoolVar(&c.keepGoing, "keep-going", false, "continue past failed runs and report partial results")
	fs.IntVar(&c.stallLimit, "stall-limit", 0, "engine stall-watchdog threshold in dispatches (0: default)")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the whole run to `file`")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile to `file` at exit")
	return c
}

// StartProfiling starts the host profiles -cpuprofile and -memprofile
// ask for; the caller defers the returned stop function.
func (c *Common) StartProfiling() (stop func() error, err error) {
	return profiling.Start(c.cpuProf, c.memProf)
}

// Apply copies the shared settings into o: the parsed -frames budgets,
// the validated chaos configuration, and the supervision knobs.
func (c *Common) Apply(o *harness.Options) error {
	frames, err := parseFrames(c.frames)
	if err != nil {
		return err
	}
	cc, err := c.chaosConfig()
	if err != nil {
		return err
	}
	o.PressureFrames = frames
	o.Chaos = cc
	o.Audit = c.audit
	o.Timeout = c.timeout
	o.Retries = c.retries
	o.ReproDir = c.reproDir
	o.KeepGoing = c.keepGoing
	o.StallLimit = c.stallLimit
	return nil
}

// parseFrames parses a comma-separated list of local-frame budgets.
func parseFrames(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var frames []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -frames entry %q (want positive integers)", part)
		}
		frames = append(frames, n)
	}
	return frames, nil
}

// chaosConfig assembles and validates the chaos configuration; the zero
// value (no chaos flag set) means chaos off.
func (c *Common) chaosConfig() (chaos.Config, error) {
	if c.chaosFail <= 0 && c.chaosDelay <= 0 && c.chaosPanicAt <= 0 && c.chaosStallAt <= 0 &&
		c.chaosNodeFail == "" && c.chaosLinkFail == "" {
		return chaos.Config{}, nil
	}
	health, err := chaos.ParseHealthSchedule(c.chaosNodeFail, c.chaosLinkFail)
	if err != nil {
		return chaos.Config{}, err
	}
	cc := chaos.Config{
		Seed: c.chaosSeed, FailProb: c.chaosFail, DelayProb: c.chaosDelay,
		MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
		MoveDelay: chaos.DefaultMoveDelay,
		PanicAt:   simTime(c.chaosPanicAt), StallAt: simTime(c.chaosStallAt),
		Health: health,
	}
	return cc, cc.Validate()
}

// simTime converts a wall-style flag duration into virtual time (both
// are nanosecond-granular).
func simTime(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}
