package metrics

// The health driver: a simulated thread that replays a chaos failure
// schedule against a running machine in virtual time. Each event fires
// at its scheduled instant — the driver idles to the event time and
// yields, so every workload thread has run up to that point — and then
// mutates the three degraded-mode layers in one atomic (yield-free)
// step: the topology's health mask and link capacities, the NUMA
// manager's evacuation/quarantine protocol, and the scheduler's
// failover masks.
//
// The driver thread is spawned only when the schedule is non-empty;
// a run without one spawns nothing and stays byte-identical, thread ids
// included.

import (
	"fmt"
	"slices"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/numa"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// healthEvent is one schedule entry with its link name resolved to an
// index (-1 for node events) before the simulation starts, so a bad
// schedule fails fast instead of mid-run.
type healthEvent struct {
	ev   chaos.HealthEvent
	link int
}

// StartHealthDriver validates cfg's failure schedule against the
// machine's topology and spawns the driver thread that replays it. A
// schedule that would leave no node online at any instant of the replay
// describes a machine that cannot run, and is an error. A nil error
// with no schedule means nothing was spawned. Call after the scheduler
// exists and before the workload runs.
func StartHealthDriver(machine *ace.Machine, mgr *numa.Manager, sch *sched.Scheduler, cfg chaos.Config) error {
	if !cfg.HealthEnabled() {
		return nil
	}
	if err := cfg.ValidateHealth(); err != nil {
		return err
	}
	spec := machine.Spec()
	events := cfg.SortedHealth()
	resolved := make([]healthEvent, len(events))
	offline := make([]bool, machine.NNodes())
	for i, ev := range events {
		r := healthEvent{ev: ev, link: -1}
		switch ev.Kind {
		case chaos.NodeOffline, chaos.NodeOnline:
			if ev.Node >= machine.NNodes() {
				return fmt.Errorf("chaos: health event %q: machine has only %d nodes", ev, machine.NNodes())
			}
			offline[ev.Node] = ev.Kind == chaos.NodeOffline
			if !slices.Contains(offline, false) {
				return fmt.Errorf("chaos: health event %q leaves no node online (machine has %d)", ev, machine.NNodes())
			}
		default:
			li, ok := spec.LinkIndex(ev.Link)
			if !ok {
				return fmt.Errorf("chaos: health event %q: topology %s has no link %q", ev, spec.Name(), ev.Link)
			}
			r.link = li
		}
		resolved[i] = r
	}
	machine.Engine().Spawn("chaos-health", 0, func(th *sim.Thread) {
		for _, r := range resolved {
			if r.ev.At > th.Clock() {
				th.Idle(r.ev.At - th.Clock())
				th.Yield()
			}
			applyHealth(machine, mgr, sch, th, r)
		}
	})
	return nil
}

// applyHealth fires one schedule entry. A node failure evacuates the
// NUMA manager first — the sync-and-migrate traffic still travels the
// healthy routes of a failing-but-not-yet-dead node — then downs the
// topology and fails the scheduler over. Revival reverses the order.
func applyHealth(machine *ace.Machine, mgr *numa.Manager, sch *sched.Scheduler, th *sim.Thread, r healthEvent) {
	topo := machine.Topo()
	bus := machine.Bus()
	switch r.ev.Kind {
	case chaos.NodeOffline:
		evac := mgr.FailNode(th, r.ev.Node)
		topo.SetNodeHealth(r.ev.Node, false)
		sch.FailNode(r.ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOffline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1,
				Arg: int64(r.ev.Node), Arg2: int64(evac),
			})
		}
	case chaos.NodeOnline:
		topo.SetNodeHealth(r.ev.Node, true)
		mgr.ReviveNode(th, r.ev.Node)
		sch.ReviveNode(r.ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOnline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1, Arg: int64(r.ev.Node),
			})
		}
	case chaos.LinkSever:
		topo.SeverLink(r.link)
		emitLinkChange(bus, th, r.link, 0, "sever")
	case chaos.LinkDegrade:
		topo.DegradeLink(r.link, r.ev.Factor)
		emitLinkChange(bus, th, r.link, int64(r.ev.Factor), "degrade")
	case chaos.LinkRestore:
		topo.RestoreLink(r.link)
		emitLinkChange(bus, th, r.link, 1, "restore")
	}
}

func emitLinkChange(bus *simtrace.Bus, th *sim.Thread, link int, factor int64, label string) {
	if bus.Enabled() {
		bus.Emit(simtrace.Event{
			Kind: simtrace.KindLinkChange, Proc: -1, Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: -1,
			Arg: int64(link), Arg2: factor, Label: label,
		})
	}
}
