package sched_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func newKernel(nproc int) *vm.Kernel {
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	return vm.NewKernel(ace.MustMachine(cfg), policy.NewDefault())
}

func TestSequentialAssignment(t *testing.T) {
	k := newKernel(4)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask("t")
	var procs []int
	for i := 0; i < 4; i++ {
		s.Spawn("w", task, 0, func(c *vm.Context) {
			procs = append(procs, c.Proc())
			c.Compute(1000) // stay alive so later spawns see the CPU busy
		})
	}
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i, p := range procs {
		if p != want[i] {
			t.Errorf("spawn %d on cpu%d, want cpu%d (sequential assignment)", i, p, want[i])
		}
	}
}

func TestReuseAfterExit(t *testing.T) {
	k := newKernel(2)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask("t")
	var first *sim.Thread
	first = s.Spawn("a", task, 0, func(c *vm.Context) { c.Compute(1) })
	var secondProc int
	k.Machine().Engine().Spawn("driver", 0, func(th *sim.Thread) {
		first.Join(th)
		// After a exits, cpu0 is free again and should be reused.
		w := s.Spawn("b", task, th.Clock(), func(c *vm.Context) {
			secondProc = c.Proc()
		})
		w.Join(th)
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if s.Live(0) != 0 || s.Live(1) != 0 {
		t.Errorf("live counts not drained: %d %d", s.Live(0), s.Live(1))
	}
	_ = secondProc // assignment rule is round-robin over free CPUs; b may take 0 or 1
}

func TestModeAccessor(t *testing.T) {
	k := newKernel(1)
	if sched.New(k, sched.NoAffinity).Mode() != sched.NoAffinity {
		t.Error("mode accessor wrong")
	}
}

// TestFailoverMigratesThread covers failover and the migration it
// rides on: a thread whose node dies moves at its next quantum boundary
// to the nearest surviving node (ties to the lowest node id), and the
// per-node accounting follows it.
func TestFailoverMigratesThread(t *testing.T) {
	k := newKernel(4)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask("t")
	var before, after int
	s.Spawn("w", task, 0, func(c *vm.Context) {
		before = c.Proc()
		s.FailNode(k.Machine().Home(before))
		c.Compute(20000) // cross a quantum boundary so failover runs
		after = c.Proc()
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if home := k.Machine().Home(before); home != 0 {
		t.Fatalf("test setup: thread spawned on node %d, want 0", home)
	}
	if home := k.Machine().Home(after); home != 1 {
		t.Errorf("after failover the thread runs on node %d, want 1", home)
	}
	st := s.Stats()
	if st.Failovers != 1 || st.Migrations != 1 {
		t.Errorf("stats = %+v, want 1 failover and 1 migration", st)
	}
	if st.NodeMigrations[1] != 1 {
		t.Errorf("NodeMigrations[1] = %d, want 1", st.NodeMigrations[1])
	}
	if st.NodeThreads[0] != 0 || st.NodeThreads[1] != 1 {
		t.Errorf("NodeThreads = %v, want the thread counted on node 1 only", st.NodeThreads)
	}
}

// TestFailedNodeSkippedBySpawn checks that new threads avoid a dead
// node's processors, and that reviving the node lifts the mask.
func TestFailedNodeSkippedBySpawn(t *testing.T) {
	k := newKernel(4)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask("t")
	s.FailNode(0)
	if !s.NodeDead(0) {
		t.Fatal("NodeDead(0) = false after FailNode(0)")
	}
	var procs []int
	for i := 0; i < 3; i++ {
		s.Spawn("w", task, 0, func(c *vm.Context) {
			procs = append(procs, c.Proc())
			c.Compute(1000)
		})
	}
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if k.Machine().Home(p) == 0 {
			t.Errorf("spawn %d landed on cpu%d of the dead node", i, p)
		}
	}
	if st := s.Stats(); st.Failovers != 0 || st.Migrations != 0 {
		t.Errorf("stats = %+v, want no failovers or migrations", st)
	}
	s.ReviveNode(0)
	if s.NodeDead(0) {
		t.Error("NodeDead(0) = true after ReviveNode(0)")
	}
}
