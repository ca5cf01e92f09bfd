package policy_test

// Differential tests for the policy API: a wrapper policy must run
// exactly like the policy it wraps.

import (
	"reflect"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

func runWith(t *testing.T, w metrics.Runner, pol numa.Policy) metrics.RunResult {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	res, err := metrics.Run(w, metrics.RunSpec{
		Config: cfg, Policy: pol, Workers: 3, Sched: sched.Affinity,
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", w.Name(), pol.Name(), err)
	}
	return res
}

// TestPragmaForwardsCapability: on Zipf, which hints no page, the
// pragma wrapper must run exactly like the policy it wraps, including a
// fallback that decays heat or defrosts pinned pages.
func TestPragmaForwardsCapability(t *testing.T) {
	for _, spec := range []string{"decaythreshold", "freezedefrost"} {
		bare, err := policy.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := policy.Parse("pragma:fallback=" + spec)
		if err != nil {
			t.Fatal(err)
		}
		want := runWith(t, workloads.NewZipf(0, 0, 0), bare)
		got := runWith(t, workloads.NewZipf(0, 0, 0), wrapped)
		got.Policy = want.Policy // the names differ by the "pragma+" prefix
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pragma:fallback=%s diverges from %s:\npragma: %+v\nbare:   %+v", spec, spec, got, want)
		}
	}
}

// TestAdaptivePoliciesAnswerSanely drives each adaptive policy's
// CachePolicy against a live manager page and checks the answers stay
// within the protocol's vocabulary.
func TestAdaptivePoliciesAnswerSanely(t *testing.T) {
	for _, spec := range []string{"decaythreshold", "classifier"} {
		pol, err := policy.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ace.DefaultConfig()
		cfg.NProc = 2
		m := ace.MustMachine(cfg)
		n := numa.NewManager(m, pol)
		if !n.TracksHeat() {
			t.Errorf("%s: adaptive policy bound but heat tracking is off", spec)
		}
		m.Engine().Spawn("probe", 0, func(th *sim.Thread) {
			pg, err := n.NewPage()
			if err != nil {
				t.Errorf("%s: %v", spec, err)
				return
			}
			for i := 0; i < 32; i++ {
				loc := pol.CachePolicy(pg, i%2, i%3 == 0, mmu.ProtReadWrite)
				if loc != numa.Local && loc != numa.Global && loc != numa.PlaceRemote {
					t.Errorf("%s: answer %v out of vocabulary", spec, loc)
					return
				}
				n.Access(th, pg, i%2, i%3 == 0, mmu.ProtReadWrite)
			}
		})
		if err := m.Engine().Run(); err != nil {
			t.Fatalf("%s: engine: %v", spec, err)
		}
	}
}
