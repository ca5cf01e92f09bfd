package mmu

import (
	"math/rand"
	"testing"

	"numasim/internal/mem"
)

// mapMMU is the TLB-free oracle for the MMU: the single-VA-per-frame
// translation table kept in two maps, with every translation answered
// from the maps directly.
type mapMMU struct {
	pt    map[Key]PTE
	byFrm map[*mem.Frame]Key
}

func newMapMMU() *mapMMU {
	return &mapMMU{pt: map[Key]PTE{}, byFrm: map[*mem.Frame]Key{}}
}

func (o *mapMMU) remove(key Key) {
	if pte, ok := o.pt[key]; ok {
		delete(o.byFrm, pte.Frame)
		delete(o.pt, key)
	}
}

func (o *mapMMU) enter(key Key, f *mem.Frame, prot Prot) {
	if old, ok := o.byFrm[f]; ok && old != key {
		o.remove(old) // alias displacement
	}
	o.remove(key)
	o.pt[key] = PTE{Key: key, Frame: f, Prot: prot}
	o.byFrm[f] = key
}

func (o *mapMMU) removeFrame(f *mem.Frame) {
	if key, ok := o.byFrm[f]; ok {
		o.remove(key)
	}
}

func (o *mapMMU) protect(key Key, prot Prot) {
	pte, ok := o.pt[key]
	if !ok {
		return
	}
	if prot == ProtNone {
		o.remove(key)
		return
	}
	pte.Prot = prot
	o.pt[key] = pte
}

func (o *mapMMU) protectFrame(f *mem.Frame, prot Prot) {
	if key, ok := o.byFrm[f]; ok {
		o.protect(key, prot)
	}
}

func (o *mapMMU) translate(key Key, write bool) *mem.Frame {
	pte, ok := o.pt[key]
	if !ok || (write && !pte.Prot.CanWrite()) || (!write && !pte.Prot.CanRead()) {
		return nil
	}
	return pte.Frame
}

// TestTLBDifferentialFuzz replays seeded random sequences of every MMU
// operation against the map-only oracle: each Translate (and each Probe
// hit) must agree with the oracle, so a TLB slot that outlives or
// misstates its translation — after alias displacement, removal,
// protection changes or a full flush — is caught on its next use. Keys
// are drawn from a range that maps several keys to each TLB slot, and
// frames from a pool small enough that entering one frame at a second key
// displaces aliases often.
func TestTLBDifferentialFuzz(t *testing.T) {
	prots := []Prot{ProtNone, ProtRead, ProtWrite, ProtReadWrite}
	nonNone := prots[1:]
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, o := New(0), newMapMMU()
		fs := frames(24)
		key := func() Key {
			// Four address spaces, 48 pages each: 192 keys over 64 slots.
			return Key(rng.Intn(4))<<32 | Key(rng.Intn(48))
		}
		var counts [8]int
		const ops = 20000
		for i := 0; i < ops; i++ {
			op := rng.Intn(100)
			switch {
			case op < 30:
				k, f, p := key(), fs[rng.Intn(len(fs))], nonNone[rng.Intn(len(nonNone))]
				m.Enter(k, f, p)
				o.enter(k, f, p)
				counts[0]++
			case op < 36:
				k := key()
				m.Remove(k)
				o.remove(k)
				counts[1]++
			case op < 40:
				f := fs[rng.Intn(len(fs))]
				m.RemoveFrame(f)
				o.removeFrame(f)
				counts[2]++
			case op < 50:
				k, p := key(), prots[rng.Intn(len(prots))]
				m.Protect(k, p)
				o.protect(k, p)
				counts[3]++
			case op < 55:
				f, p := fs[rng.Intn(len(fs))], prots[rng.Intn(len(prots))]
				m.ProtectFrame(f, p)
				o.protectFrame(f, p)
				counts[4]++
			case op < 56:
				m.RemoveAll()
				o = newMapMMU()
				counts[5]++
			default:
				k, write := key(), rng.Intn(2) == 0
				want := o.translate(k, write)
				if got := m.Probe(k, write); got != nil && got != want {
					t.Fatalf("seed %d op %d: Probe(%#x, write=%v) = %v, oracle %v", seed, i, k, write, got, want)
				}
				if got := m.Translate(k, write); got != want {
					t.Fatalf("seed %d op %d: Translate(%#x, write=%v) = %v, oracle %v", seed, i, k, write, got, want)
				}
				counts[6]++
			}
			if m.Mappings() != len(o.pt) {
				t.Fatalf("seed %d op %d: %d mappings, oracle %d", seed, i, m.Mappings(), len(o.pt))
			}
		}
		// A final sweep over every key and both access kinds.
		for s := Key(0); s < 4; s++ {
			for v := Key(0); v < 48; v++ {
				k := s<<32 | v
				for _, write := range []bool{false, true} {
					if got, want := m.Translate(k, write), o.translate(k, write); got != want {
						t.Fatalf("seed %d final: Translate(%#x, write=%v) = %v, oracle %v", seed, k, write, got, want)
					}
				}
			}
		}
		if s := m.Stats(); s.AliasDrops == 0 || counts[5] == 0 {
			t.Fatalf("seed %d: sequence never displaced an alias (%d) or flushed (%d)", seed, s.AliasDrops, counts[5])
		}
	}
}
