package workloads

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/cthreads"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/vm"
)

// naivePrime is trial division, independent of the sieve.
func naivePrime(n uint32) bool {
	if n < 2 {
		return false
	}
	for d := uint32(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// TestCountPrimesMatchesNaive checks the odd-only bit sieve's count
// against trial division for every limit 0..5000 (every word and bit
// boundary of the bit vector), and against π(10⁷) = 664,579, Primes3's
// default limit.
func TestCountPrimesMatchesNaive(t *testing.T) {
	want := 0
	for limit := uint32(0); limit <= 5000; limit++ {
		if naivePrime(limit) {
			want++
		}
		if got := countPrimes(limit); got != want {
			t.Fatalf("countPrimes(%d) = %d, want %d", limit, got, want)
		}
	}
	if got := countPrimes(10_000_000); got != 664_579 {
		t.Errorf("countPrimes(10^7) = %d, want 664579", got)
	}
}

// TestOddSieveAgreesWithTrialDivision checks take for every n up to the
// limit and past it, and that oddPrimes lists the odd primes in ascending
// order.
func TestOddSieveAgreesWithTrialDivision(t *testing.T) {
	const limit = 3001
	s := newOddSieve(limit)
	got := s.oddPrimes(55)
	var odd []uint32
	for n := uint32(0); n <= limit+50; n++ {
		want := n <= limit && naivePrime(n)
		if got := s.take(n); got != want {
			t.Errorf("take(%d) = %v, want %v", n, got, want)
		}
		if want && n%2 == 1 && n <= 55 {
			odd = append(odd, n)
		}
	}
	if len(got) != len(odd) {
		t.Fatalf("oddPrimes(55) = %v, want %v", got, odd)
	}
	for i := range got {
		if got[i] != odd[i] {
			t.Fatalf("oddPrimes(55) = %v, want %v", got, odd)
		}
	}
}

// writeWord overwrites a word of the task's memory after the run, in the
// page's authoritative frame (where readWord reads it).
func writeWord(task *vm.Task, va, v uint32) {
	obj, idx, off := locate(task, va)
	obj.Page(idx).Authoritative().Store32(off, v)
}

func smallRuntime() *cthreads.Runtime {
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 2048
	cfg.LocalFrames = 1024
	return cthreads.New(vm.NewKernel(ace.MustMachine(cfg), policy.NewDefault()), sched.Affinity)
}

// nextPrime returns the smallest prime above n.
func nextPrime(n uint32) uint32 {
	for n++; !naivePrime(n); n++ {
	}
	return n
}

// TestPrimeVerifiersRejectCorruptOutput runs Primes2 and Primes3 to
// completion, then writes one bad value at a time into the simulated
// output vector: a composite, an even number, a duplicate of another
// entry and a prime past the limit. Each verifier must reject every one
// and accept the restored vector.
func TestPrimeVerifiersRejectCorruptOutput(t *testing.T) {
	p2 := NewPrimes2(2000, true)
	p3 := NewPrimes3(20000)
	for _, tc := range []struct {
		name   string
		run    func() error
		verify func() error
		task   func() *vm.Task
		outVec func() uint32
		limit  uint32
		even   uint32
	}{
		{"Primes2", func() error { return p2.Run(smallRuntime(), 3) }, p2.verify,
			func() *vm.Task { return p2.task }, func() uint32 { return p2.outVec }, p2.Limit, 1000},
		// Primes3 lists odd primes only, so even the even prime is wrong.
		{"Primes3", func() error { return p3.Run(smallRuntime(), 3) }, p3.verify,
			func() *vm.Task { return p3.task }, func() uint32 { return p3.outVec }, p3.Limit, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			task, vec := tc.task(), tc.outVec()
			const slot = 5
			va := vec + slot*4
			orig := readWord(task, va)
			other := readWord(task, vec+(slot+1)*4)
			for _, bad := range []struct {
				what string
				v    uint32
			}{
				{"composite", 3 * 7 * 11},
				{"even", tc.even},
				{"duplicate", other},
				{"out of range", nextPrime(tc.limit)},
			} {
				writeWord(task, va, bad.v)
				if err := tc.verify(); err == nil {
					t.Errorf("%s value %d accepted", bad.what, bad.v)
				}
			}
			writeWord(task, va, orig)
			if err := tc.verify(); err != nil {
				t.Errorf("restored output rejected: %v", err)
			}
		})
	}
}
