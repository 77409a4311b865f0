// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the modules' public APIs, checks every output
// against a committed reference, and prints the end-to-end metrics (from
// untraced passes) or the per-layer metrics (from one traced pass) as the
// last line of standard output:
//
//	e2ebench --workload regen-quick --seed 1 --seconds 20 --trace 0
//	e2ebench steady --workload outofcore --runs 5
//
// Run it from the repository root through e2ebench/run.sh, which builds
// this module and keeps every build and temp file under .bench_build.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// hostProcs sizes every pool for the 2-CPU host the benchmark was tuned on:
// GOMAXPROCS and the sweep parallelism are both pinned to it.
const hostProcs = 2

// workloads maps each workload name to its constructor.
var workloads = map[string]func(*bench) (runner, error){
	"regen-quick": newRegenQuick,
	"outofcore":   newOutOfCore,
	"serve-mix":   newServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every output check passed, 1 when a check failed (the result line is
// still printed, with "correct": false), 2 when the run could not happen.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		if err := cmdSteady(args[1:], stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench steady:", err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (serve-mix: arrival schedule and job mix)")
	seconds := fs.Int("seconds", 20, "target measuring time; whole passes of the fixed work are repeated until it is reached")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from one traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	runtime.GOMAXPROCS(hostProcs)

	b := &bench{seed: *seed, seconds: float64(*seconds), out: stdout, errw: stderr}
	w, err := mk(b)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 2
	}
	var res *result
	if *traced == 1 {
		res, err = b.runTraced(w)
	} else {
		res, err = b.runUntraced(w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 2
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkRoot makes sure the benchmark runs from a repository checkout: the
// reference outputs it checks against live there.
func checkRoot() error {
	for _, p := range []string{"go.mod", "results", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	if os.Getenv("TMPDIR") == "" {
		return errors.New("TMPDIR is unset; run through e2ebench/run.sh so temp files stay in the checkout")
	}
	return nil
}
