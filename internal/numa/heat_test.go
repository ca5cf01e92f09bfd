package numa

// White-box property tests for the per-page decaying access histograms:
// the lazy shift-on-touch decay must be indistinguishable from an eager
// model that halves every counter at every epoch boundary.

import "testing"

// testRand is a tiny deterministic PRNG (SplitMix64) so this
// determinism-core package's tests need no math/rand.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b893
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

// eagerHeat is the reference model: counters halved once per elapsed
// epoch, applied eagerly at every advance.
type eagerHeat struct {
	heat  []uint32
	move  uint32
	epoch uint32
}

func (e *eagerHeat) advanceTo(epoch uint32) {
	for e.epoch < epoch {
		for i := range e.heat {
			e.heat[i] >>= 1
		}
		e.move >>= 1
		e.epoch++
	}
}

func TestHeatDecayLazyMatchesEager(t *testing.T) {
	const nodes = 4
	for seed := 0; seed < 100; seed++ {
		rng := testRand(seed)
		pg := &Page{heat: make([]uint32, nodes)}
		ref := &eagerHeat{heat: make([]uint32, nodes)}
		epoch := uint32(0)
		for op := 0; op < 400; op++ {
			// Advance the epoch clock by 0..5 and touch the page: the
			// lazy model decays on touch, the eager model per epoch.
			epoch += uint32(rng.intn(6))
			pg.decayTo(epoch)
			ref.advanceTo(epoch)
			if rng.intn(4) == 0 {
				pg.moveHeat++
				ref.move++
			} else {
				n := rng.intn(nodes)
				pg.heat[n]++
				ref.heat[n]++
			}
			for i := range ref.heat {
				if pg.heat[i] != ref.heat[i] {
					t.Fatalf("seed %d op %d: node %d lazy heat %d, eager %d",
						seed, op, i, pg.heat[i], ref.heat[i])
				}
			}
			if pg.moveHeat != ref.move {
				t.Fatalf("seed %d op %d: lazy moveHeat %d, eager %d", seed, op, pg.moveHeat, ref.move)
			}
			if pg.heatEpoch != epoch {
				t.Fatalf("seed %d op %d: epoch stamp %d, want %d", seed, op, pg.heatEpoch, epoch)
			}
		}
	}
}

func TestHeatDecayLargeJumpZeroes(t *testing.T) {
	pg := &Page{heat: []uint32{1 << 31, 12345, 7}, moveHeat: 999, heatEpoch: 3}
	pg.decayTo(3 + 32)
	for i, h := range pg.heat {
		if h != 0 {
			t.Errorf("node %d: heat %d after a 32-epoch jump, want 0", i, h)
		}
	}
	if pg.moveHeat != 0 {
		t.Errorf("moveHeat %d after a 32-epoch jump, want 0", pg.moveHeat)
	}
	if pg.heatEpoch != 35 {
		t.Errorf("epoch stamp %d, want 35", pg.heatEpoch)
	}
}

// TestHeatDecayIgnoresEarlierEpochs: a request from a thread behind in
// virtual time carries an epoch before the page's own. It must decay
// nothing (an unsigned shift would wrap and zero every counter), and
// the manager's epoch must not move backwards.
func TestHeatDecayIgnoresEarlierEpochs(t *testing.T) {
	n := &Manager{heatEpoch: DefaultHeatEpoch}
	pg := &Page{heat: make([]uint32, 2)}
	for i := 0; i < 8; i++ {
		n.bumpHeat(pg, 0, 138*DefaultHeatEpoch)
	}
	pg.moveHeat = 5
	n.bumpHeat(pg, 1, 137*DefaultHeatEpoch)
	if pg.heat[0] != 8 || pg.heat[1] != 1 || pg.moveHeat != 5 {
		t.Errorf("heat %v, moveHeat %d after a request one epoch behind; want [8 1] and 5",
			pg.heat, pg.moveHeat)
	}
	if pg.heatEpoch != 138 {
		t.Errorf("page epoch %d, want 138", pg.heatEpoch)
	}
	if n.curEpoch != 138 {
		t.Errorf("manager epoch %d after a request one epoch behind, want 138", n.curEpoch)
	}
	// decayTo on its own ignores an epoch before the page's.
	pg.decayTo(100)
	if pg.heat[0] != 8 || pg.heatEpoch != 138 {
		t.Errorf("decayTo(100) on a page at epoch 138: heat %v, epoch %d", pg.heat, pg.heatEpoch)
	}
	// The next epoch still halves as usual.
	n.bumpHeat(pg, 1, 139*DefaultHeatEpoch)
	if pg.heat[0] != 4 || pg.heat[1] != 1 || pg.moveHeat != 2 {
		t.Errorf("heat %v, moveHeat %d one epoch on; want [4 1] and 2", pg.heat, pg.moveHeat)
	}
}

func TestHeatAccessors(t *testing.T) {
	pg := &Page{heat: []uint32{3, 9, 9, 1}, moveHeat: 5}
	if got := pg.TotalHeat(); got != 22 {
		t.Errorf("TotalHeat = %d, want 22", got)
	}
	// Ties go to the lowest node index, keeping the advisor deterministic.
	if got := pg.HotNode(); got != 1 {
		t.Errorf("HotNode = %d, want 1", got)
	}
	if got := pg.NodeHeat(2); got != 9 {
		t.Errorf("NodeHeat(2) = %d, want 9", got)
	}
	if got := pg.MoveHeat(); got != 5 {
		t.Errorf("MoveHeat = %d, want 5", got)
	}
	cold := &Page{heat: make([]uint32, 4)}
	if got := cold.HotNode(); got != -1 {
		t.Errorf("HotNode on a cold page = %d, want -1", got)
	}
}
