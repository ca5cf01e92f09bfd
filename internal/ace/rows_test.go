package ace

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/mem"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// classOracle classifies a reference from the frame itself: global by
// the frame's kind, local when the frame lives on the processor's home
// node, remote otherwise.
func classOracle(m *Machine, proc int, f *mem.Frame) string {
	switch {
	case f.Kind() == mem.Global:
		return "global"
	case f.Proc() == m.Home(proc):
		return "local"
	default:
		return "remote"
	}
}

// bumped names the one counter pair that moved between before and after,
// or "" if none or several did.
func bumped(before, after RefStats) (fetch, store string) {
	d := RefStats{
		LocalFetch:  after.LocalFetch - before.LocalFetch,
		LocalStore:  after.LocalStore - before.LocalStore,
		GlobalFetch: after.GlobalFetch - before.GlobalFetch,
		GlobalStore: after.GlobalStore - before.GlobalStore,
		RemoteFetch: after.RemoteFetch - before.RemoteFetch,
		RemoteStore: after.RemoteStore - before.RemoteStore,
	}
	if d.Total() != 2 {
		return "", ""
	}
	switch {
	case d.LocalFetch == 1:
		fetch = "local"
	case d.RemoteFetch == 1:
		fetch = "remote"
	case d.GlobalFetch == 1:
		fetch = "global"
	}
	switch {
	case d.LocalStore == 1:
		store = "local"
	case d.RemoteStore == 1:
		store = "remote"
	case d.GlobalStore == 1:
		store = "global"
	}
	return fetch, store
}

// randomSpec builds a seeded random machine: 2..6 nodes, N..2N processors
// homed by an explicit random map, symmetric SLIT distances and random
// latencies.
func randomSpec(t *testing.T, seed int64) *topology.Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nnodes := 2 + rng.Intn(5)
	nprocs := nnodes + rng.Intn(nnodes+1)
	dist := make([][]int, nnodes)
	for a := range dist {
		dist[a] = make([]int, nnodes)
		dist[a][a] = 10
	}
	for a := 0; a < nnodes; a++ {
		for b := a + 1; b < nnodes; b++ {
			d := 11 + rng.Intn(40)
			dist[a][b], dist[b][a] = d, d
		}
	}
	homeOf := make([]int, nprocs)
	for p := range homeOf {
		homeOf[p] = rng.Intn(nnodes)
	}
	fetch := make([][]sim.Time, nprocs)
	store := make([][]sim.Time, nprocs)
	for p := range fetch {
		fetch[p] = make([]sim.Time, nnodes+1)
		store[p] = make([]sim.Time, nnodes+1)
		for col := range fetch[p] {
			fetch[p][col] = sim.Time(500+rng.Intn(2000)) * sim.Nanosecond
			store[p][col] = sim.Time(500+rng.Intn(2000)) * sim.Nanosecond
		}
	}
	spec, err := topology.Explicit("random", nnodes, nprocs, homeOf, dist, fetch, store)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestChargeRowsMatchCostModel is the differential test of the
// per-processor charge tables: for every (processor, column) pair of the
// ACE, 4socket, mesh8 and a random explicit machine, the latency row must
// equal CostModel.FetchCost/StoreCost for a frame in that column, a
// charge must advance the thread by exactly that cost (plus any link
// wait on a contended machine), and the counter it bumps must be the one
// the kind/home classification picks.
func TestChargeRowsMatchCostModel(t *testing.T) {
	type machine struct {
		name string
		cfg  Config
	}
	var machines []machine
	for _, name := range []string{"ace", "4socket", "mesh8"} {
		cfg := DefaultConfig()
		cfg.NProc = 8
		cfg.Topology = name
		machines = append(machines, machine{name, cfg})
	}
	for seed := int64(1); seed <= 4; seed++ {
		spec := randomSpec(t, seed)
		cfg := DefaultConfig()
		cfg.NProc = spec.NProcs()
		cfg.Topo = spec
		machines = append(machines, machine{fmt.Sprintf("random/%d", seed), cfg})
	}
	for _, mc := range machines {
		cfg := mc.cfg
		cfg.GlobalFrames = 4
		cfg.LocalFrames = 4
		t.Run(mc.name, func(t *testing.T) {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One frame per latency column: each node's local memory,
			// then the interleaved global memory.
			var frames []*mem.Frame
			for n := 0; n < m.NNodes(); n++ {
				frames = append(frames, m.Memory().Local(n).Frame(0))
			}
			frames = append(frames, m.Memory().Global().Frame(0))
			cost := m.Cost()
			contended := m.Topo().Contended()
			m.Engine().Spawn("t", 0, func(th *sim.Thread) {
				for proc := 0; proc < m.NProc(); proc++ {
					p := m.Proc(proc)
					if len(p.fetchLat) != len(frames) || len(p.storeLat) != len(frames) || len(p.class) != len(frames) {
						t.Errorf("cpu%d: rows of %d/%d/%d columns, want %d", proc, len(p.fetchLat), len(p.storeLat), len(p.class), len(frames))
						return
					}
					for col, f := range frames {
						if got, want := p.fetchLat[col], cost.FetchCost(f, proc); got != want {
							t.Errorf("cpu%d col %d: fetch row %v, FetchCost %v", proc, col, got, want)
						}
						if got, want := p.storeLat[col], cost.StoreCost(f, proc); got != want {
							t.Errorf("cpu%d col %d: store row %v, StoreCost %v", proc, col, got, want)
						}
						before, t0 := p.Refs(), th.UserTime()
						m.ChargeFetch(th, proc, f)
						t1 := th.UserTime()
						m.ChargeStore(th, proc, f)
						t2 := th.UserTime()
						if d, want := t1-t0, cost.FetchCost(f, proc); d != want && !(contended && d > want) {
							t.Errorf("cpu%d col %d: ChargeFetch advanced %v, want %v", proc, col, d, want)
						}
						if d, want := t2-t1, cost.StoreCost(f, proc); d != want && !(contended && d > want) {
							t.Errorf("cpu%d col %d: ChargeStore advanced %v, want %v", proc, col, d, want)
						}
						want := classOracle(m, proc, f)
						if gf, gs := bumped(before, p.Refs()); gf != want || gs != want {
							t.Errorf("cpu%d col %d: bumped fetch %q store %q, want %q", proc, col, gf, gs, want)
						}
					}
				}
			})
			if err := m.Engine().Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChargeRowsShareSpecStorage: the latency rows are views of the
// spec's matrices, not copies, so NewMachine adds no per-processor
// latency storage.
func TestChargeRowsShareSpecStorage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc = 4
	m := MustMachine(cfg)
	for proc := 0; proc < m.NProc(); proc++ {
		p := m.Proc(proc)
		if &p.fetchLat[0] != &m.Spec().FetchRow(proc)[0] || &p.storeLat[0] != &m.Spec().StoreRow(proc)[0] {
			t.Errorf("cpu%d: latency rows are copies of the spec's matrices", proc)
		}
		if cap(p.fetchLat) != m.NNodes()+1 || cap(p.class) != m.NNodes()+1 {
			t.Errorf("cpu%d: row capacity %d/%d, want %d", proc, cap(p.fetchLat), cap(p.class), m.NNodes()+1)
		}
	}
}
