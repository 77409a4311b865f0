// Command uselessmiss regenerates the tables and figures of Dubois et al.,
// "The Detection and Elimination of Useless Misses in Multiprocessors"
// (ISCA 1993), and exposes the library's classifiers, protocol simulators
// and trace tooling on the command line.
//
// Usage:
//
//	uselessmiss <subcommand> [flags]
//
// Subcommands:
//
//	list       list the available workloads
//	table1     classification comparison (paper Table 1)
//	table2     benchmark characteristics (paper Table 2)
//	fig5       miss decomposition vs. block size (paper Fig. 5)
//	fig6       invalidation schedules at one block size (paper Fig. 6)
//	large      large-data-set study (paper §7)
//	traffic    memory-traffic study incl. update protocols (paper §8)
//	finite     finite-cache classification sweep (paper §8)
//	ablate     design-choice ablations (-what cu | wbwi)
//	compare    joint per-miss verdicts of the three schemes (paper §3)
//	penalty    execution-time model of the schedules (miss penalties)
//	hotspots   miss attribution by data structure (the §6 narrative)
//	phases     miss classification over computation phases
//	bench      benchmark harness (BENCH_*.json + perf gate)
//	regen      write every experiment's report into a directory
//	selfcheck  verify the paper's structural identities on any trace
//	classify   classify one workload or trace file at one block size
//	protocols  run protocol simulators over one workload or trace file
//	serve      long-running classification service (HTTP job API)
//	trace      packed trace files: pack a workload, info, cat as text
//
// Run 'uselessmiss <subcommand> -h' for the flags of each subcommand.
//
// Exit codes:
//
//	0    success (for 'serve': a clean graceful drain)
//	1    error
//	3    a 'serve' drain hit its deadline and force-canceled jobs
//	130  interrupted: SIGINT/SIGTERM received or -timeout expired
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/serve"
)

const (
	exitOK          = 0
	exitErr         = 1
	exitDrainForced = 3
	exitInterrupted = 130
)

func main() {
	// The first SIGINT/SIGTERM cancels the run context: in-flight sweep
	// cells stop at the next batch boundary, the pool drains, and the
	// metrics report still flushes. A second signal kills the process via
	// the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := exitCode(runContext(ctx, os.Args[1:], os.Stdout))
	stop()
	os.Exit(code)
}

// exitCode prints the run error and maps it onto the exit-code scheme.
func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "uselessmiss:", err)
	}
	return exitCodeFor(err)
}

// exitCodeFor maps a run error onto the CLI's exit-code scheme:
// cancellation (signal or -timeout) outranks a forced serve drain, which
// outranks a plain error. Pure, so the provenance manifest records the
// same status the process exits with.
func exitCodeFor(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return exitInterrupted
	case errors.Is(err, serve.ErrDrainForced):
		return exitDrainForced
	}
	return exitErr
}
