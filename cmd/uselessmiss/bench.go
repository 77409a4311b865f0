package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/perfbench"
	"repro/internal/report"
)

// perfGateError marks a perf-gate failure so main can exit non-zero with
// the regression table already rendered.
type perfGateError struct{ failures int }

func (e *perfGateError) Error() string {
	return fmt.Sprintf("perf gate failed: %d workload(s) regressed against baseline", e.failures)
}

// cmdBench runs the benchmark harness: every registered workload is
// measured (refs/s, ns/ref, allocs/pass), and the report is written as
// schema-versioned BENCH_<host>_<date>.json. With -baseline, the run is
// additionally gated: a readable regression table is printed and the
// command fails when a workload is slower than the baseline beyond
// -tolerance or a pinned path allocates per pass.
func cmdBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	output := fs.String("o", "", "output JSON path (default BENCH_<host>_<date>.json)")
	baseline := fs.String("baseline", "", "gate against this baseline BENCH_*.json (exit 1 on regression)")
	tolerance := fs.Float64("tolerance", 0.10, "allowed fractional refs/s drop against baseline")
	benchtime := fs.Duration("benchtime", 300*time.Millisecond, "wall-clock floor for one timing window per workload")
	repeats := fs.Int("repeats", 5, "timing windows per workload (the fastest wins)")
	allocPasses := fs.Int("allocpasses", 3, "passes to average allocs/pass over")
	workloads := fs.String("workloads", "", "comma-separated workload subset (default all)")
	list := fs.Bool("list", false, "list the registered workloads and exit")
	logLevel := fs.String("log", "warn", "slog level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	if *list {
		tb := report.NewTable("workload", "pinned")
		for _, w := range perfbench.All() {
			tb.Rowf(w.Name, w.Pinned)
		}
		tb.Note("pinned workloads hard-fail the gate at >= 1 alloc/pass")
		tb.Fprint(out)
		return nil
	}

	rep, err := perfbench.Run(perfbench.Options{
		MinTime:     *benchtime,
		Repeats:     *repeats,
		AllocPasses: *allocPasses,
		Workloads:   splitList(*workloads),
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}

	path := *output
	if path == "" {
		path = perfbench.DefaultFilename(time.Now())
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}

	benchSummary(rep, out)
	fmt.Fprintf(out, "wrote %s (%d workloads)\n", path, len(rep.Workloads))

	if *baseline == "" {
		return nil
	}
	base, err := perfbench.Load(*baseline)
	if err != nil {
		return fmt.Errorf("loading baseline: %w", err)
	}
	gate, err := perfbench.Compare(base, rep, perfbench.Tolerance{Throughput: *tolerance})
	if err != nil {
		return err
	}
	gate.Fprint(out)
	if !gate.OK() {
		return &perfGateError{failures: len(gate.Failures())}
	}
	return nil
}

// benchSummary renders the fresh measurements as an aligned table.
func benchSummary(rep *perfbench.Report, out io.Writer) {
	tb := report.NewTable("workload", "refs/s", "ns/ref", "allocs/pass")
	for _, w := range rep.Workloads {
		tb.Rowf(w.Name,
			fmt.Sprintf("%.0f", w.RefsPerSec),
			fmt.Sprintf("%.2f", w.NsPerRef),
			fmt.Sprintf("%.1f", w.AllocsPerPass))
	}
	tb.Notef("%s on %s (%s/%s, %d CPUs, %s)", rep.Schema, rep.Host, rep.GOOS, rep.GOARCH, rep.NumCPU, rep.GoVersion)
	tb.Fprint(out)
}
