package main

import "time"

// The speed of the shared host this benchmark was defined on drifts by
// a quarter over tens of minutes: with the simulated work fixed, one
// pass of table3 took 7.7 s in one ten-run set and 10.1 s in the next.
// The end-to-end host times are therefore scaled to a reference host
// speed, sampled throughout the same run by a fixed calibration kernel
// that uses none of the simulator's code. A faster simulator still reads
// faster; a slower host no longer does.

const (
	// calRef is the kernel's median time on the reference host (2-core
	// Xeon, go1.24, at commit cf87f5e), rounded.
	calRef = 50 * time.Millisecond
	// calRounds is the kernel's length: about calRef on that host.
	calRounds = 45_000
	// calEvery spaces the samples: one after an op once this much host
	// time has passed since the previous sample, so the samples cover
	// the whole run and cost about 5 % of it.
	calEvery = time.Second
)

// speedProbe samples the calibration kernel between the ops of untraced
// passes and records the host time the samples took, so that measure can
// leave it out of the pass.
type speedProbe struct {
	// table is the kernel's working set: 256 KB, allocated once, so the
	// samples add nothing to the passes' garbage.
	table   []uint64
	samples []float64 // nanoseconds
	last    time.Time
	// wall and cpu are spent in samples since the last reset.
	wall, cpu time.Duration
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{table: make([]uint64, 1<<15)}
}

// tick takes a sample if calEvery has passed since the last one. It is
// called after each op; a nil probe does nothing.
func (p *speedProbe) tick() {
	if p == nil || time.Since(p.last) < calEvery {
		return
	}
	u0, t0 := readUsage(), time.Now()
	p.samples = append(p.samples, float64(p.kernel()))
	p.last = time.Now()
	p.wall += p.last.Sub(t0)
	p.cpu += readUsage().cpu - u0.cpu
}

// scale is the factor that turns this run's host times into reference
// host times: calRef over the median sample.
func (p *speedProbe) scale() float64 {
	return float64(calRef) / medianOf(p.samples)
}

// kernel runs the calibration kernel once and returns its host time. It
// is shaped like the simulator's hot loop: two goroutines hand a token
// back and forth over unbuffered channels, as the engine and a simulated
// thread do on every dispatch, and each does a burst of dependent
// hashing and table reads between handoffs, as the reference path does.
func (p *speedProbe) kernel() time.Duration {
	table := p.table
	mask := uint64(len(table) - 1)
	work := func(x uint64) uint64 {
		for i := 0; i < 16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			idx := (x >> 33) & mask
			table[idx] += x
			x ^= table[(idx*7)&mask]
		}
		return x
	}
	start := time.Now()
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for x := range ping {
			pong <- work(x)
		}
		close(pong)
	}()
	x := uint64(1)
	for i := 0; i < calRounds; i++ {
		ping <- work(x)
		x = <-pong
	}
	close(ping)
	for range pong { // wait for the partner goroutine to exit
	}
	elapsed := time.Since(start)
	table[0] += x // keep the result live
	return elapsed
}
