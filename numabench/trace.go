package main

import (
	"time"

	"numasim/internal/simtrace"
)

// layerSink is the traced pass's simtrace.Sink. It deliberately does not
// implement simtrace.BatchSink, so the bus hands it every event as it
// happens and fault-enter/fault-exit pairs can be timed on the host
// clock. The ops of a pass run one after another, so the sink is never
// called concurrently.
type layerSink struct {
	counts [simtrace.KindCount]uint64
	// enter holds each simulated thread's pending fault-enter host time.
	enter     []time.Time
	faultHost time.Duration
	faults    uint64
}

func (s *layerSink) Emit(ev simtrace.Event) {
	if ev.Kind < simtrace.KindCount {
		s.counts[ev.Kind]++
	}
	switch ev.Kind {
	case simtrace.KindFaultEnter:
		if ev.Thread < 0 {
			return
		}
		for int(ev.Thread) >= len(s.enter) {
			s.enter = append(s.enter, time.Time{})
		}
		s.enter[ev.Thread] = time.Now()
	case simtrace.KindFaultExit:
		if ev.Thread < 0 || int(ev.Thread) >= len(s.enter) || s.enter[ev.Thread].IsZero() {
			return
		}
		s.faultHost += time.Since(s.enter[ev.Thread])
		s.enter[ev.Thread] = time.Time{}
		s.faults++
	}
}
