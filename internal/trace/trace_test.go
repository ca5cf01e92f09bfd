package trace

import (
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		refs []struct {
			proc  int
			write bool
		}
		want Class
	}{
		{"untouched", nil, Untouched},
		{"private-read", []struct {
			proc  int
			write bool
		}{{0, false}}, Private},
		{"private-rw", []struct {
			proc  int
			write bool
		}{{0, false}, {0, true}}, Private},
		{"read-shared", []struct {
			proc  int
			write bool
		}{{0, false}, {1, false}}, ReadShared},
		{"writably-shared", []struct {
			proc  int
			write bool
		}{{0, true}, {1, false}}, WritablyShared},
		{"two-writers", []struct {
			proc  int
			write bool
		}{{0, true}, {1, true}}, WritablyShared},
	}
	for _, c := range cases {
		u := &use{}
		for _, r := range c.refs {
			u.record(r.proc, r.write)
		}
		if got := u.classify(); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		Untouched: "untouched", Private: "private",
		ReadShared: "read-shared", WritablyShared: "writably-shared",
	} {
		if c.String() != want {
			t.Errorf("%v", c)
		}
	}
}

func TestFalseSharingDetection(t *testing.T) {
	c := New(12, true)
	// Page 0: word 0 written only by cpu0, word 1 written only by cpu1:
	// the page is writably shared, but no word is -> falsely shared.
	c.Record(0, 0x000, true)
	c.Record(1, 0x004, true)
	// Page 1: word written by both cpus: truly shared.
	c.Record(0, 0x1000, true)
	c.Record(1, 0x1000, true)
	// Page 2: read-only sharing.
	c.Record(0, 0x2000, false)
	c.Record(1, 0x2000, false)
	// Page 3: private.
	c.Record(2, 0x3000, true)

	pages := c.Pages()
	if len(pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(pages))
	}
	if !pages[0].FalselyShared || pages[0].Class != WritablyShared {
		t.Errorf("page 0 = %+v, want falsely shared", pages[0])
	}
	if pages[1].FalselyShared || pages[1].Class != WritablyShared {
		t.Errorf("page 1 = %+v, want truly writably shared", pages[1])
	}
	if pages[2].Class != ReadShared {
		t.Errorf("page 2 = %+v, want read-shared", pages[2])
	}
	if pages[3].Class != Private {
		t.Errorf("page 3 = %+v, want private", pages[3])
	}

	s := c.Summarize()
	if s.FalselyShared != 1 || s.WritablyShared != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.FalseSharePct != 50 {
		t.Errorf("FalseSharePct = %v, want 50", s.FalseSharePct)
	}
	out := s.Render()
	for _, want := range []string{"4 pages touched", "falsely shared:  1 of 2", "private:         1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWordTrackingDisabled(t *testing.T) {
	c := New(12, false)
	c.Record(0, 0, true)
	c.Record(1, 4, true)
	pages := c.Pages()
	if pages[0].FalselyShared {
		t.Error("false sharing cannot be detected without word tracking")
	}
	if len(c.words) != 0 {
		t.Error("words tracked despite disabled")
	}
}

func TestCounts(t *testing.T) {
	c := New(12, true)
	for i := 0; i < 5; i++ {
		c.Record(0, 0x100, false)
	}
	for i := 0; i < 3; i++ {
		c.Record(0, 0x100, true)
	}
	p := c.Pages()[0]
	if p.Reads != 5 || p.Writes != 3 || p.Readers != 1 || p.Writers != 1 {
		t.Errorf("report = %+v", p)
	}
}

func TestRenderBusiest(t *testing.T) {
	c := New(12, true)
	// Page 0x1000 is the busiest and falsely shared: each cpu writes its
	// own word. Page 0x2000 is private and less busy; page 0x3000 is
	// touched once and falls below the cut.
	for i := 0; i < 3; i++ {
		c.Record(0, 0x1000, true)
		c.Record(1, 0x1004, true)
	}
	c.Record(2, 0x2000, false)
	c.Record(2, 0x2000, true)
	c.Record(3, 0x3000, false)

	got := c.RenderBusiest(2)
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 5 || lines[0] != "" || lines[1] != "busiest 2 pages:" {
		t.Fatalf("want a blank line, a title, a header and 2 rows:\n%s", got)
	}
	if !strings.HasPrefix(lines[3], "  0x1000 ") || !strings.Contains(lines[3], "FALSELY SHARED") {
		t.Errorf("first row should be the falsely shared page 0x1000: %q", lines[3])
	}
	if !strings.HasPrefix(lines[4], "  0x2000 ") || strings.Contains(lines[4], "FALSELY") {
		t.Errorf("second row should be the private page 0x2000: %q", lines[4])
	}
}
