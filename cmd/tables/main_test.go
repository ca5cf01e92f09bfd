package main

import (
	"strings"
	"testing"
)

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestProtocolTables(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-table", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 1") || !strings.Contains(out.String(), "sync&flush") {
		t.Errorf("Table 1 output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-table", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 2") {
		t.Errorf("Table 2 output unexpected:\n%s", out.String())
	}
}

func TestFigures(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-figure", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("Figure 1 output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-figure", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Errorf("Figure 2 output unexpected:\n%s", out.String())
	}
}

func TestTimingReportsEventCounts(t *testing.T) {
	// -timing diagnostics go to stderr only; the table on stdout must be
	// byte-identical with and without it.
	var plain, plainErr strings.Builder
	if code := run([]string{"-small", "-table", "3"}, &plain, &plainErr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, plainErr.String())
	}
	var timed, timedErr strings.Builder
	if code := run([]string{"-small", "-table", "3", "-timing"}, &timed, &timedErr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, timedErr.String())
	}
	if plain.String() != timed.String() {
		t.Error("-timing changed the table output")
	}
	se := timedErr.String()
	if !strings.Contains(se, "wall time") || !strings.Contains(se, "trace events") {
		t.Errorf("-timing should report wall time and event counts on stderr, got: %s", se)
	}
	for _, kind := range []string{"action", "state-change", "dispatch"} {
		if !strings.Contains(se, kind) {
			t.Errorf("-timing breakdown missing %q:\n%s", kind, se)
		}
	}
}

func TestExperimentList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, name := range []string{"table3", "pressuresweep", "falsesharing"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("experiment list missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "nonsense"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "nonsense") {
		t.Errorf("stderr should name the unknown experiment, got: %s", errb.String())
	}
}

func TestPressureSweepExperiment(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-small", "-nproc", "3", "-exp", "pressuresweep",
		"-app", "FFT", "-frames", "4,2"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Memory pressure") ||
		!strings.Contains(out.String(), "unbounded") {
		t.Errorf("pressure table unexpected:\n%s", out.String())
	}

	// The same sweep as CSV.
	var csv strings.Builder
	if code := run(append(args, "-csv"), &csv, &errb); code != 0 {
		t.Fatalf("csv exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(csv.String(), "app,local_frames,") {
		t.Errorf("csv output unexpected:\n%s", csv.String())
	}
}

func TestPressureSweepChaosDeterminism(t *testing.T) {
	args := []string{"-small", "-nproc", "3", "-exp", "pressuresweep",
		"-app", "IMatMult", "-frames", "4",
		"-chaos-seed", "42", "-chaos-fail", "0.2", "-chaos-delay", "0.2"}
	var a, b, errb strings.Builder
	if code := run(append(args, "-parallel", "1"), &a, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if code := run(append(args, "-parallel", "4"), &b, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if a.String() != b.String() {
		t.Errorf("chaos run differs across -parallel:\n-parallel 1:\n%s\n-parallel 4:\n%s",
			a.String(), b.String())
	}
	if !strings.Contains(a.String(), "Memory pressure") {
		t.Errorf("pressure table missing:\n%s", a.String())
	}
}

func TestBadFramesFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "pressuresweep", "-frames", "4,zero"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
}

func TestBadChaosConfigFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "pressuresweep", "-chaos-fail", "1.5"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
}

// TestTablesRefuseFailureSchedules: Table 3 and Table 4 compare T_numa
// against healthy T_local/T_global reference runs, so a failure
// schedule is refused and the error points at the availability sweep.
func TestTablesRefuseFailureSchedules(t *testing.T) {
	for _, table := range []string{"3", "4"} {
		var out, errb strings.Builder
		args := []string{"-small", "-nproc", "3", "-table", table, "-chaos-node-fail", "0@1ms"}
		if code := run(args, &out, &errb); code != 1 {
			t.Fatalf("table %s: exit code = %d, want 1; stdout: %s", table, code, out.String())
		}
		if !strings.Contains(errb.String(), "-exp availability") {
			t.Errorf("table %s: stderr should point to -exp availability, got: %s", table, errb.String())
		}
	}
}

// TestFalseSharingRefusesFailureSchedule: the false-sharing experiment
// computes α from T_global and T_local reference runs too, so it refuses
// a failure schedule like Tables 3 and 4 instead of failing deep inside
// the one-processor T_local run.
func TestFalseSharingRefusesFailureSchedule(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-small", "-nproc", "3", "-exp", "falsesharing", "-chaos-node-fail", "1@1ms-5ms"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout: %s", code, out.String())
	}
	for _, want := range []string{"falsesharing", "-exp availability"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr should name %q, got: %s", want, errb.String())
		}
	}
}
