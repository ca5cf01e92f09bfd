package policy

import (
	"sort"
	"strings"
	"testing"
)

// TestParseErrors: every way a spec can be wrong must come back as an
// error, not a silently misconfigured policy.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"no-such-policy", "unknown policy"},
		{"threshold:frobnicate=1", "unknown parameter"},
		{"threshold:limit=banana", "want an integer"},
		{"threshold:limit", "malformed parameter"},
		{"threshold:=3", "malformed parameter"},
		{"decaythreshold:interval=-5", "non-negative"},
		{"pragma:fallback=no-such-policy", "unknown policy"},
		{"pragma:fallback=pragma", "cannot wrap itself"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error mentioning %q", c.spec, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want mention of %q", c.spec, err, c.want)
		}
	}
}

// TestParseSpellings: case and whitespace are forgiven; parameters reach
// the policy (visible through its self-describing Name).
func TestParseSpellings(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"threshold", "threshold(4)"},
		{"Threshold : limit=2", "threshold(2)"},
		{"THRESHOLD:limit=2,", "threshold(2)"},
		{"pragma:fallback=decaythreshold,limit=8", "pragma+decay-threshold(8)"},
		{"pragma:fallback=threshold,limit=2", "pragma+threshold(2)"},
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if pol.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, pol.Name(), c.name)
		}
	}
}

// TestRegistryCatalog: Names is sorted and complete, and Usage documents
// every registered policy with its parameter vocabulary.
func TestRegistryCatalog(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{
		"threshold", "neverpin", "allglobal", "alllocal", "pragma",
		"reconsider", "freezedefrost", "decaythreshold", "classifier",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() missing %q: %v", want, names)
		}
	}
	usage := Usage()
	for _, want := range []string{"threshold", "limit=", "period=", "fallback=", "interval="} {
		if !strings.Contains(usage, want) {
			t.Errorf("Usage() missing %q:\n%s", want, usage)
		}
	}
}

// TestParseReturnsFreshInstances: policies are stateful; two parses of
// the same spec must not share a policy.
func TestParseReturnsFreshInstances(t *testing.T) {
	a, err := Parse("decaythreshold")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("decaythreshold")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("Parse returned the same instance twice")
	}
}
