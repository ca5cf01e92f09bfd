package main

import (
	"flag"
	"fmt"
	"io"

	"numasim/internal/harness"
)

// flagWasSet reports whether the named flag appeared on the command line
// (as opposed to holding its default).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runExperiment executes one harness-registry experiment ("list" prints
// the registry) and returns the process exit code.
func runExperiment(name string, opts harness.Options, stdout, stderr io.Writer) int {
	if name == "list" {
		for _, n := range harness.Names() {
			e, _ := harness.Lookup(n)
			fmt.Fprintf(stdout, "%-16s %s\n", e.Name(), e.Describe())
		}
		return 0
	}
	e, ok := harness.Lookup(name)
	if !ok {
		fmt.Fprintf(stderr, "acesim: unknown experiment %q (try -exp list)\n", name)
		return 1
	}
	res, err := e.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.Render())
	return 0
}
