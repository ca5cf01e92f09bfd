package main

import (
	"sort"
	"time"

	"numasim/internal/simtrace"
)

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianBy(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return medianOf(xs)
}

func medianWall(ps []pass) time.Duration {
	return time.Duration(medianBy(ps, func(p pass) float64 { return float64(p.wall) }))
}

// totals sums per-op quantities over a pass. Simulated counters cover
// every op that returned a result; passed counts ops with no failure
// reason, and passRefs/passFaults only their work.
type totals struct {
	passed, attempted    int
	passRefs, passFaults uint64
	setup, run           time.Duration
}

func (p pass) totals() totals {
	var t totals
	for _, o := range p.ops {
		t.attempted++
		t.setup += o.setup
		t.run += o.run
		if o.reason == "" {
			t.passed++
			t.passRefs += o.res.Refs.Total()
			t.passFaults += o.res.Faults
		}
	}
	return t
}

// endToEnd computes the metrics a user of the simulator sees, as medians
// over the run's untraced passes. Host times are multiplied, and rates
// divided, by scale: the reference host's calibration time over this
// run's (see calibrate.go).
func endToEnd(w workload, passes []pass, scale float64) map[string]metric {
	var passed, attempted int
	for _, p := range passes {
		t := p.totals()
		passed += t.passed
		attempted += t.attempted
	}
	// The Table 3 rows the paper published were measured on the ACE;
	// the other workloads have no published counterpart and report a
	// constant 1 so the metric exists for every workload.
	paperErr := 1.0
	if w.name == "table3" {
		paperErr = passes[0].paperErrMax()
	}
	seconds := func(f func(pass) time.Duration) float64 {
		return scale * medianBy(passes, func(p pass) float64 { return f(p).Seconds() })
	}
	rate := func(f func(totals) uint64) float64 {
		return medianBy(passes, func(p pass) float64 { return float64(f(p.totals())) / p.wall.Seconds() }) / scale
	}
	return map[string]metric{
		"wall_s":           {seconds(func(p pass) time.Duration { return p.wall }), "s"},
		"cpu_s":            {seconds(func(p pass) time.Duration { return p.cpu }), "s"},
		"setup_s":          {seconds(func(p pass) time.Duration { return p.totals().setup }), "s"},
		"sim_refs_per_s":   {rate(func(t totals) uint64 { return t.passRefs }), "1/s"},
		"sim_faults_per_s": {rate(func(t totals) uint64 { return t.passFaults }), "1/s"},
		"alloc_mb":         {medianBy(passes, func(p pass) float64 { return float64(p.alloc) / 1e6 }), "MB"},
		"ok_frac":          {float64(passed) / float64(attempted), "ratio"},
		"paper_err_max":    {paperErr, "1"},
	}
}

// perLayer computes the per-layer metrics of a traced run: simulated
// counters from the first traced pass (every pass reproduces them), host
// CPU shares from the profile samples of all traced passes, and the
// benchmark's own spans.
func perLayer(plain, traced []pass, sinks []*layerSink, samples map[string]int64) map[string]metric {
	m := map[string]metric{}
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		m[name] = metric{v, "ratio"}
	}

	var sampleTotal int64
	for _, n := range samples {
		sampleTotal += n
	}
	for _, l := range hostLayers {
		ratio("host."+l+"_frac", float64(samples[l]), float64(sampleTotal))
	}

	var (
		refs, local, global, remote                  uint64
		faults, enters, removes, aliasDrops          uint64
		requests, moves, copies, syncs, flushes, pin uint64
		xfers, spawns, migrations                    uint64
		busy, wait, user, sys, worst                 float64
	)
	for _, o := range traced[0].ops {
		if o.err != nil {
			continue
		}
		r := o.res
		refs += r.Refs.Total()
		local += r.Refs.LocalFetch + r.Refs.LocalStore
		global += r.Refs.GlobalFetch + r.Refs.GlobalStore
		remote += r.Refs.RemoteFetch + r.Refs.RemoteStore
		faults += r.VM.Faults
		enters += o.mmu.Enters
		removes += o.mmu.Removes
		aliasDrops += o.mmu.AliasDrops
		requests += r.NUMA.ReadRequests + r.NUMA.WriteRequests
		moves += r.NUMA.Moves
		copies += r.NUMA.Copies
		syncs += r.NUMA.Syncs
		flushes += r.NUMA.Flushes
		pin += r.NUMA.Pins
		for _, l := range r.Links {
			xfers += l.Xfers
			busy += l.Service.Seconds()
			wait += l.Waited.Seconds()
		}
		if _, w := implausible(r, o.quantum); w > worst {
			worst = w
		}
		user += float64(r.UserSec)
		sys += float64(r.SysSec)
		spawns += r.Sched.Spawns
		migrations += r.Sched.Migrations
	}
	s := sinks[0]
	count("sim.dispatches", s.counts[simtrace.KindDispatch])
	count("policy.decisions", s.counts[simtrace.KindDecision])
	count("ace.refs", refs)
	ratio("ace.local_frac", float64(local), float64(refs))
	count("ace.global_refs", global)
	count("ace.remote_refs", remote)
	count("vm.faults", faults)
	count("mmu.enters", enters)
	count("mmu.removes", removes)
	count("mmu.alias_drops", aliasDrops)
	count("numa.requests", requests)
	count("numa.moves", moves)
	count("numa.copies", copies)
	count("numa.syncs", syncs)
	count("numa.flushes", flushes)
	count("numa.pins", pin)
	ratio("numa.moves_per_fault", float64(moves), float64(faults))
	count("topology.xfers", xfers)
	m["topology.busy_s"] = metric{busy, "s"}
	m["topology.wait_s"] = metric{wait, "s"}
	m["topology.worst_wait_ratio"] = metric{worst, "ratio"}
	m["sim.user_s"] = metric{user, "s"}
	m["sim.sys_s"] = metric{sys, "s"}
	count("sched.spawns", spawns)
	count("sched.migrations", migrations)

	var faultHost time.Duration
	var timed uint64
	for _, s := range sinks {
		faultHost += s.faultHost
		timed += s.faults
	}
	us := 0.0
	if timed > 0 {
		us = float64(faultHost) / float64(time.Microsecond) / float64(timed)
	}
	m["host.fault_us"] = metric{us, "us"}

	m["span.setup_s"] = metric{medianBy(traced, func(p pass) float64 { return p.totals().setup.Seconds() }), "s"}
	m["span.run_s"] = metric{medianBy(traced, func(p pass) float64 { return p.totals().run.Seconds() }), "s"}
	ratio("trace_overhead", float64(medianWall(traced)), float64(medianWall(plain)))

	var failed, attempted int
	for _, p := range append(append([]pass(nil), plain...), traced...) {
		t := p.totals()
		failed += t.attempted - t.passed
		attempted += t.attempted
	}
	ratio("failed_frac", float64(failed), float64(attempted))
	// Peak RSS swings by a quarter between runs of the same code on the
	// small-heap zipf-grid (GC timing under host load), more than any
	// end-to-end bound allows, so it is reported here, unbounded.
	m["peak_rss_mb"] = metric{float64(readUsage().peakRSS) / 1e6, "MB"}
	return m
}
