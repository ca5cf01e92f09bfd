package harness

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite the behaviour manifest with current output")

// The behaviour manifest: testdata/manifest holds the full rendered
// output of every registry experiment, so any change in simulated
// behaviour shows up as a readable diff of the files it moved. Each
// golden is what the tables command prints for the case's flags (the
// text form without the command's final newline); CSV goldens end in
// .csv, text goldens in .txt. Regenerate after a deliberate behaviour
// change, and justify the diff in the commit:
//
//	go test ./internal/harness -run TestManifest -update

// manifestCase is one golden: an experiment run with fixed options.
type manifestCase struct {
	name string // subtest and golden file name
	exp  string
	opts Options
	csv  bool // render the CSV form when the result offers one
}

// manifestCases lists every registry entry at -small -nproc 3, in CSV
// form where the entry offers it, plus the extra cases below.
func manifestCases(t *testing.T) []manifestCase {
	smallP3 := Options{Small: true, NProc: 3}
	var cases []manifestCase
	for _, name := range Names() {
		cases = append(cases, manifestCase{name: name, exp: name, opts: smallP3, csv: true})
	}
	nodeFail, err := chaos.ParseNodeFail("1@1ms-5ms")
	if err != nil {
		t.Fatal(err)
	}
	mesh8, fail := smallP3, smallP3
	mesh8.Topology = "mesh8"
	fail.Topology, fail.App = "4socket", "Zipf"
	// What -chaos-node-fail alone configures on the command line.
	fail.Chaos = chaos.Config{
		MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
		MoveDelay: chaos.DefaultMoveDelay, Health: nodeFail,
	}
	return append(cases,
		// tables -small -nproc 3 -table 3: the paper's table as printed.
		manifestCase{name: "table3_small_p3", exp: "table3", opts: smallP3},
		// tables -figure 1: the default seven-processor machine.
		manifestCase{name: "figure1_default", exp: "figure1"},
		// tables -small -nproc 3 -topology mesh8 -exp table3 -csv: every
		// global and remote reference crosses the mesh's links.
		manifestCase{name: "table3_mesh8", exp: "table3", opts: mesh8, csv: true},
		// tables -small -nproc 3 -topology 4socket -app Zipf
		// -chaos-node-fail 1@1ms-5ms -exp thresholdsweep -csv: node 1
		// fails and revives under every threshold.
		manifestCase{name: "thresholdsweep_zipf_4socket_nodefail", exp: "thresholdsweep", opts: fail, csv: true},
	)
}

// TestManifest runs every manifest case and compares its output byte
// for byte with the committed golden.
func TestManifest(t *testing.T) {
	for _, c := range manifestCases(t) {
		t.Run(c.name, func(t *testing.T) {
			e, ok := Lookup(c.exp)
			if !ok {
				t.Fatalf("no experiment %q", c.exp)
			}
			res, err := e.Run(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, ext := res.Render(), ".txt"
			if cr, ok := res.(CSVResult); ok && c.csv {
				got, ext = cr.RenderCSV(), ".csv"
			}
			path := filepath.Join("testdata", "manifest", c.name+ext)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from %s.\ngot:\n%s\nwant:\n%s", c.name, path, got, want)
			}
		})
	}
}

// TestManifestLinkBound replays the manifest cases that run on contended
// topologies and checks every machine they built against the link
// model's closed-system bound (topology.CheckBound): no hop waited more
// than NProcs-1 of the largest service booked on its link.
func TestManifestLinkBound(t *testing.T) {
	contended := map[string]bool{
		"tournament": true, "availability": true,
		"table3_mesh8": true, "thresholdsweep_zipf_4socket_nodefail": true,
	}
	for _, c := range manifestCases(t) {
		if !contended[c.name] {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			e, ok := Lookup(c.exp)
			if !ok {
				t.Fatalf("no experiment %q", c.exp)
			}
			var mu sync.Mutex
			var machines []*ace.Machine
			opts := c.opts
			opts.onMachine = func(m *ace.Machine) {
				mu.Lock()
				machines = append(machines, m)
				mu.Unlock()
			}
			if _, err := e.Run(opts); err != nil {
				t.Fatal(err)
			}
			var hops uint64
			for _, m := range machines {
				if err := m.Topo().CheckBound(); err != nil {
					t.Error(err)
				}
				for _, l := range m.Topo().LinkStats() {
					hops += l.Xfers
				}
			}
			if hops == 0 {
				t.Fatal("no transfer crossed a link; the bound was never exercised")
			}
			t.Logf("%d machines, %d hops within the bound", len(machines), hops)
		})
	}
}

// TestManifestHasNoStrays keeps the manifest directory in step with the
// case list: a golden no case writes is a leftover.
func TestManifestHasNoStrays(t *testing.T) {
	names := map[string]bool{}
	for _, c := range manifestCases(t) {
		names[c.name] = true
	}
	files, err := os.ReadDir(filepath.Join("testdata", "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		stem := f.Name()[:len(f.Name())-len(filepath.Ext(f.Name()))]
		if !names[stem] {
			t.Errorf("testdata/manifest/%s matches no manifest case", f.Name())
		}
	}
}

// TestTable3ACEExplicitTopology: naming the topology "ace" selects the same
// machine as the default empty string — same table, same bytes.
func TestTable3ACEExplicitTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 run")
	}
	base := Options{Small: true, NProc: 3, Parallelism: 1}
	def, err := Table3Single(base, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	named := base
	named.Topology = "ace"
	got, err := Table3Single(named, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	if RenderTable3([]Table3Row{got}) != RenderTable3([]Table3Row{def}) {
		t.Errorf("-topology ace diverged from the default machine")
	}
}
