package harness

import (
	"fmt"
	"strings"
	"testing"

	"numasim/internal/policy"
)

// reduced grid for the determinism and acceptance tests: one topology,
// the two phase-changing probes, and a policy subset that includes the
// adaptive policies and reconsider, whose reprieve counts are per-run
// state.
var (
	testTopos = []string{"ace"}
	testWorks = []string{"Phased", "Zipf"}
	testPols  = []string{"threshold", "decaythreshold", "reconsider", "classifier"}
)

// TestTournamentParallelDeterminism: the ranked tournament tables must
// be byte-identical whether the grid's cells run sequentially or eight
// at a time. Reconsider carries per-run state (its per-page reprieve
// counts), so this also proves a fresh policy is parsed per cell and
// nothing leaks across the pool.
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
// competition-ranked within its group (rank i+1 at position i, or the
// previous row's rank when tied with it on both times), the leaderboard
// covers every policy exactly once, and the renders carry the grid.
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
		for i, row := range res.Rows[start : start+group] {
			want := i + 1
			if i > 0 {
				prev := res.Rows[start+i-1]
				if row.UserSec == prev.UserSec && row.SysSec == prev.SysSec {
					want = prev.Rank
				}
			}
			if row.Rank != want {
				t.Errorf("%s/%s/%s: rank %d, want %d", row.Topology, row.Workload, row.Policy, row.Rank, want)
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

// TestTiedRowsShareRank: rows equal on user and system time share the
// rank of the first of them, the next rank is skipped, and every row
// tied at the top is credited with a win.
func TestTiedRowsShareRank(t *testing.T) {
	g := []TournamentRow{
		{Policy: "d", UserSec: 2, SysSec: 1},
		{Policy: "c", UserSec: 1, SysSec: 5},
		{Policy: "b", UserSec: 1, SysSec: 5},
		{Policy: "e", UserSec: 2, SysSec: 1},
		{Policy: "a", UserSec: 2, SysSec: 0},
	}
	rankGroup(g)
	var got []string
	for _, r := range g {
		got = append(got, fmt.Sprintf("%d:%s", r.Rank, r.Policy))
	}
	if want := "1:b 1:c 3:a 4:d 4:e"; strings.Join(got, " ") != want {
		t.Errorf("ranks %q, want %q", strings.Join(got, " "), want)
	}
	wins := map[string]int{}
	for _, lr := range leaderboard(g) {
		wins[lr.Policy] = lr.Wins
	}
	if wins["b"] != 1 || wins["c"] != 1 || wins["a"] != 0 {
		t.Errorf("wins %v, want one each for the tied leaders b and c", wins)
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
