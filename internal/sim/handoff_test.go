package sim

import (
	"errors"
	"testing"
)

// Threads dispatch each other, and a thread that is still the earliest
// keeps running on its own goroutine; these tests pin that the stall
// watchdog, Stop and error teardown still act on those paths, which never
// pass back through Run.

// TestStallWatchdogLoneThread: a lone thread that yields forever without
// charging virtual time only ever dispatches itself, and the watchdog must
// still end the run at exactly StallLimit dispatches.
func TestStallWatchdogLoneThread(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 64
	th := e.Spawn("spinner", 0, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	err := e.Run()
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("err = %#v, want *StallError", err)
	}
	if st.Dispatches != 64 {
		t.Errorf("Dispatches = %d, want StallLimit 64", st.Dispatches)
	}
	if th.State() != Done || th.Err() != ErrAborted {
		t.Errorf("spinner state=%v err=%v, want done/ErrAborted", th.State(), th.Err())
	}
}

// TestStopWhileSelfDispatching: Stop from another goroutine reaches a lone
// thread that keeps dispatching itself; Run returns a StoppedError and
// every thread, blocked bystander included, is aborted.
func TestStopWhileSelfDispatching(t *testing.T) {
	e := NewEngine()
	running := make(chan struct{})
	worker := e.Spawn("worker", 0, func(th *Thread) {
		th.Advance(Microsecond)
		th.Yield() // the bystander runs and blocks; from here on only the worker is ready
		close(running)
		for {
			th.Advance(Microsecond)
			th.Yield()
		}
	})
	bystander := e.Spawn("bystander", 0, func(th *Thread) { th.Block("forever") })
	go func() {
		<-running
		e.Stop()
	}()
	err := e.Run()
	var stopped *StoppedError
	if !errors.As(err, &stopped) {
		t.Fatalf("err = %#v, want *StoppedError", err)
	}
	for _, th := range []*Thread{worker, bystander} {
		if th.State() != Done || th.Err() != ErrAborted {
			t.Errorf("%s state=%v err=%v, want done/ErrAborted", th.Name(), th.State(), th.Err())
		}
	}
}

// TestPanicAfterHandoff: a thread that panics right after another thread
// resumed it directly makes Run return the wrapped panic, and every other
// thread is aborted, including one that never started.
func TestPanicAfterHandoff(t *testing.T) {
	errBoom := errors.New("boom")
	e := NewEngine()
	yielder := e.Spawn("yielder", 0, func(th *Thread) {
		th.Advance(Microsecond)
		th.Yield() // hands off to victim, which is earlier
		t.Error("yielder resumed after the run failed")
	})
	e.Spawn("victim", 0, func(th *Thread) { panic(errBoom) })
	lateRan := false
	late := e.Spawn("late", Second, func(th *Thread) { lateRan = true })
	err := e.Run()
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the wrapped panic", err)
	}
	if lateRan {
		t.Error("late thread ran after the failure")
	}
	for _, th := range []*Thread{yielder, late} {
		if th.State() != Done || th.Err() != ErrAborted {
			t.Errorf("%s state=%v err=%v, want done/ErrAborted", th.Name(), th.State(), th.Err())
		}
	}
}

// TestYieldZeroAlloc: a steady-state Yield allocates nothing, whether the
// thread dispatches itself or hands off to a peer.
func TestYieldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on channel operations; guard runs in non-race CI")
	}
	for _, tc := range []struct {
		name  string
		peers int
	}{{"self-dispatch", 0}, {"handoff", 1}} {
		e := NewEngine()
		var allocs float64
		done := false
		e.Spawn("measured", 0, func(th *Thread) {
			step := func() {
				th.Advance(Microsecond)
				th.Yield()
			}
			for i := 0; i < 16; i++ {
				step() // warm up: grow the ready heap
			}
			allocs = testing.AllocsPerRun(200, step)
			done = true
		})
		for i := 0; i < tc.peers; i++ {
			e.Spawn("peer", 0, func(th *Thread) {
				for !done {
					th.Advance(Microsecond)
					th.Yield()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: Yield allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}
