package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numasim/internal/simtrace"
)

func TestUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{},                 // missing FILE
		{"a", "b"},         // too many args
		{"-no-such-flag"},  // unknown flag
		{"-top", "x", "f"}, // bad flag value
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestMissingFileExitsOne(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{filepath.Join(t.TempDir(), "nope")}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "traceview:") {
		t.Errorf("stderr should carry the error, got: %s", errb.String())
	}
}

func TestViewsChromeTraceJSON(t *testing.T) {
	events := []simtrace.Event{
		{Kind: simtrace.KindPageCreated, Proc: -1, Thread: -1, Time: 0, Page: 7},
		{Kind: simtrace.KindSpan, Proc: 0, Thread: 1, Time: 100, Dur: 2000, Page: -1, Label: "worker0"},
		{Kind: simtrace.KindStateChange, Proc: -1, Thread: -1, Time: 150, Page: 7,
			Arg: 1, Arg2: 0, Label: "local-writable"},
		{Kind: simtrace.KindAction, Proc: 0, Thread: 1, Time: 150, Page: 7, Label: "copy to local"},
		{Kind: simtrace.KindSpan, Proc: 1, Thread: 2, Time: 300, Dur: 500, Page: -1, Label: "worker1"},
		{Kind: simtrace.KindPageFreed, Proc: -1, Thread: 1, Time: 2500, Page: 7},
	}
	path := filepath.Join(t.TempDir(), "events.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := simtrace.WriteChrome(f, events, simtrace.ChromeMeta{NProc: 2, Label: "unit"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb strings.Builder
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"Chrome trace-event stream",
		"busy virtual time per track",
		"cpu0", "cpu1",
		"worker0",
		"state changes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Chrome-trace report missing %q:\n%s", want, got)
		}
	}
}

func TestRejectsGarbageJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "Chrome trace JSON") {
		t.Errorf("stderr should blame the JSON parse, got: %s", errb.String())
	}
}
