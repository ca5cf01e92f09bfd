package numasim_test

import (
	"fmt"

	"numasim"
)

// The basic lifecycle: build a system, run a parallel program, inspect
// where automatic placement put the pages.
func ExampleNew() {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg))
	if err != nil {
		panic(err)
	}

	private := sys.Runtime.Alloc("private", 4096)
	err = sys.Runtime.Run(2, func(id int, c *numasim.Context) {
		if id == 0 {
			for i := uint32(0); i < 8; i++ {
				c.Store32(private+i*4, i)
			}
		}
	})
	if err != nil {
		panic(err)
	}
	pg := sys.Runtime.Task().EntryAt(private).Object().Page(0)
	fmt.Println("state:", pg.State(), "pinned:", pg.Pinned())
	// Output:
	// state: local-writable pinned: false
}

// Pages written from several processors use up their move budget and are
// pinned in global memory (§2.3.2).
func ExampleThresholdPolicy() {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithPolicy(numasim.ThresholdPolicy(2)))
	if err != nil {
		panic(err)
	}
	shared := sys.Runtime.Alloc("shared", 4096)
	err = sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		for i := 0; i < 4; i++ {
			c.MigrateTo(i % 2)
			c.Store32(shared, uint32(i))
		}
	})
	if err != nil {
		panic(err)
	}
	pg := sys.Runtime.Task().EntryAt(shared).Object().Page(0)
	fmt.Println("state:", pg.State(), "moves:", pg.Moves())
	// Output:
	// state: global-writable moves: 2
}

// A custom policy is any implementation of the one-function cache_policy
// interface (§2.3.2).
func ExamplePolicy() {
	alwaysGlobal := numasim.AllGlobalPolicy()
	fmt.Println(alwaysGlobal.Name())
	// Output:
	// all-global
}

// The placement pragmas of §4.3: a region known to be writably shared can
// be pinned up front.
func ExampleTask_SetHint() {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithPolicy(numasim.PragmaPolicy(nil)))
	if err != nil {
		panic(err)
	}
	va := sys.Runtime.Alloc("known-shared", 4096)
	sys.Runtime.Task().SetHint(va, numasim.HintNoncacheable)
	err = sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		c.Store32(va, 1)
	})
	if err != nil {
		panic(err)
	}
	pg := sys.Runtime.Task().EntryAt(va).Object().Page(0)
	fmt.Println("state:", pg.State())
	// Output:
	// state: global-writable
}

// Reference traces classify every page's sharing behaviour (§4.2, §5).
func ExampleTraceCollector() {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	collector := numasim.NewTraceCollector(sys.Machine.PageShift(), true)
	sys.Machine.RefTrace = collector.Record

	va := sys.Runtime.Alloc("data", 4096)
	err = sys.Runtime.Run(2, func(id int, c *numasim.Context) {
		c.Store32(va+uint32(4*id), uint32(id)) // two CPUs write distinct words
	})
	if err != nil {
		panic(err)
	}
	for _, p := range collector.Pages() {
		if p.Class.String() == "writably-shared" {
			fmt.Println("falsely shared:", p.FalselyShared)
		}
	}
	// Output:
	// falsely shared: true
}

// Bounding per-processor local memory (the tentpole of the pressure
// experiments) puts the reclaimer to work: with only two local frames,
// writing four private pages forces two cold ones back to global memory.
func ExampleWithLocalFrames() {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithLocalFrames(2))
	if err != nil {
		panic(err)
	}
	pages := sys.Runtime.Alloc("data", 4*4096)
	err = sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		for p := uint32(0); p < 4; p++ {
			c.Store32(pages+p*4096, p)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("evictions:", sys.Kernel.NUMA().Stats().Evictions)
	// Output:
	// evictions: 2
}
