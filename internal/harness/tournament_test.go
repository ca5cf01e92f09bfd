package harness

import (
	"strings"
	"testing"

	"numasim/internal/policy"
)

// reduced grid for the determinism and acceptance tests: one topology,
// the two phase-changing probes, and a policy subset that includes a
// seeded bandit (its PRNG stream must also replay identically).
var (
	testTopos = []string{"ace"}
	testWorks = []string{"Phased", "Zipf"}
	testPols  = []string{"threshold", "decaythreshold", "bandit:seed=7", "classifier"}
)

// TestTournamentParallelDeterminism: the ranked tournament tables must
// be byte-identical whether the grid's cells run sequentially or eight
// at a time. The adaptive policies carry per-run state (decaying
// histograms, a bandit PRNG), so this also proves a fresh policy is
// parsed per cell and nothing leaks across the pool.
func TestTournamentParallelDeterminism(t *testing.T) {
	seq, err := tournamentGrid(Options{NProc: 3, Small: true, Parallelism: 1}, testTopos, testWorks, testPols)
	if err != nil {
		t.Fatal(err)
	}
	par, err := tournamentGrid(Options{NProc: 3, Small: true, Parallelism: 8}, testTopos, testWorks, testPols)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Render(), seq.Render(); got != want {
		t.Errorf("rendered tournament differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", want, got)
	}
	if got, want := par.RenderCSV(), seq.RenderCSV(); got != want {
		t.Errorf("tournament CSV differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", want, got)
	}
}

// TestTournamentShape checks the structural contract: every cell is
// ranked 1..len(policies) within its group, the leaderboard covers every
// policy exactly once, and the renders carry the grid.
func TestTournamentShape(t *testing.T) {
	res, err := tournamentGrid(Options{NProc: 3, Small: true}, testTopos, testWorks, testPols)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(testTopos)*len(testWorks)*len(testPols); got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	group := len(testPols)
	for start := 0; start < len(res.Rows); start += group {
		seen := map[int]bool{}
		for _, row := range res.Rows[start : start+group] {
			if row.Rank < 1 || row.Rank > group {
				t.Errorf("%s/%s/%s: rank %d out of range", row.Topology, row.Workload, row.Policy, row.Rank)
			}
			if seen[row.Rank] {
				t.Errorf("%s/%s: duplicate rank %d", row.Topology, row.Workload, row.Rank)
			}
			seen[row.Rank] = true
		}
		// Within a group the rows are sorted by rank.
		for i := start + 1; i < start+group; i++ {
			if res.Rows[i].Rank != res.Rows[i-1].Rank+1 {
				t.Errorf("group at %d: ranks not consecutive", start)
			}
		}
	}
	if len(res.Board) != len(testPols) {
		t.Errorf("leaderboard has %d rows, want %d", len(res.Board), len(testPols))
	}
	text := res.Render()
	for _, want := range []string{"Leaderboard", "ace / Zipf", "rank", "pins"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	csv := res.RenderCSV()
	if !strings.HasPrefix(csv, "topology,workload,rank,policy,") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if got, want := strings.Count(csv, "\n"), len(res.Rows)+1; got != want {
		t.Errorf("CSV has %d lines, want %d", got, want)
	}
}

// TestAdaptiveBeatsThresholdOnZipf is the zoo's acceptance criterion:
// on the skewed, phase-changing Zipf probe at least one adaptive policy
// must outrank the paper's fixed Threshold.
func TestAdaptiveBeatsThresholdOnZipf(t *testing.T) {
	res, err := tournamentGrid(Options{NProc: 3, Small: true}, testTopos, []string{"Zipf"}, testPols)
	if err != nil {
		t.Fatal(err)
	}
	rank := func(spec string) int {
		for _, row := range res.Rows {
			if row.Policy == spec {
				return row.Rank
			}
		}
		t.Fatalf("no policy %s in ranks:\n%s", spec, res.Render())
		return 0
	}
	thr := rank("threshold")
	if got := rank("decaythreshold"); got >= thr {
		t.Errorf("decaythreshold ranks %d, threshold ranks %d; want the adaptive policy ahead on Zipf\n%s",
			got, thr, res.Render())
	}
}

// TestTournamentNamesRoundTrip: every row and leaderboard entry names
// the registry spec it ran, so policy.Parse (and -policy) accepts it.
func TestTournamentNamesRoundTrip(t *testing.T) {
	res, err := tournamentGrid(Options{NProc: 3, Small: true}, testTopos, []string{"Zipf"}, TournamentPolicies)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if _, err := policy.Parse(row.Policy); err != nil {
			t.Errorf("row %s/%s: policy name %q does not parse: %v", row.Topology, row.Workload, row.Policy, err)
		}
	}
	for _, lr := range res.Board {
		if _, err := policy.Parse(lr.Policy); err != nil {
			t.Errorf("leaderboard: policy name %q does not parse: %v", lr.Policy, err)
		}
	}
}
