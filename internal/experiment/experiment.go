// Package experiment regenerates the paper's tables and figures: Table 1
// (classification comparison), Table 2 (benchmark characteristics), Fig. 5
// (miss decomposition vs. block size), Fig. 6 (invalidation schedules at
// cache and page block sizes), and the §7 large-data-set study. Each driver
// replays the synthetic benchmark traces of package workload through the
// classifiers of package core and the protocol simulators of package
// coherence, and renders the same rows and series the paper reports.
//
// Every driver runs on the sweep engine (package sweep): the experiment is
// expanded into a grid of independent cells, the cells execute on a bounded
// worker pool (Options.Parallelism) replaying traces materialized once in a
// shared cache, and the report is rendered only after the grid completes,
// in grid order — so the output is byte-identical at any parallelism.
package experiment

import (
	"context"
	"fmt"
	"io"

	"repro/internal/obs/span"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// driverSpan opens a root span covering a whole driver (fig5, table1, ...)
// on the main track; drivers defer its End. No-op when tracing is off.
func driverSpan(name string) span.Span {
	return span.Root(span.OpExperiment, span.Fields{Note: name})
}

// replaySpan opens a cell.replay span for one cell's full replay on the
// sweep worker's track carried by ctx, annotated with the cell's grid
// coordinates. No-op when tracing is off or the context has no track.
func replaySpan(ctx context.Context, workloadName, scheme string, block int) span.Span {
	return span.Start(ctx, span.OpReplay, span.Fields{
		Workload: workloadName,
		Scheme:   scheme,
		Block:    int32(block),
	})
}

// Options configures the experiment drivers. The zero value is not usable:
// use Default.
type Options struct {
	// Out receives the rendered report. Drivers never write to it from
	// sweep cells: all output happens after the parallel phase, on the
	// calling goroutine, in deterministic grid order.
	Out io.Writer
	// CSV emits machine-readable CSV instead of aligned tables (charts
	// are suppressed).
	CSV bool
	// Quick substitutes the small data sets in the heavy experiments
	// (Table 1 and the §7 study), trading fidelity for seconds-scale
	// runtime.
	Quick bool
	// Workloads overrides each experiment's default workload list.
	Workloads []string
	// Protocols overrides the protocol list for Fig. 6 and the §7 study.
	Protocols []string
	// Blocks overrides the block-size sweep for Fig. 5.
	Blocks []int
	// Parallelism bounds the sweep worker pool (the CLI's -j flag).
	// Zero means GOMAXPROCS; 1 recovers the serial path. The rendered
	// output is byte-identical at any setting.
	Parallelism int
	// TraceFiles binds workloads to packed trace files (the CLI's
	// -trace-file flag): bound workloads replay out-of-core from their
	// files instead of regenerating, every cell through a file reader of
	// its own (see source). Nil means every workload generates.
	TraceFiles *TraceFileSet
	// Cache shares materialized workload traces across driver calls
	// (regen runs every artifact off one cache). Nil gives each driver
	// its own cache for the duration of the call.
	Cache *sweep.TraceCache
	// Ctx is the run's cancellation context (the CLI's signal/timeout
	// context); nil means context.Background(). Cancellation is observed
	// at batch granularity inside every cell replay, so an interrupted
	// driver returns ctx.Err() within one batch of references.
	Ctx context.Context
}

// Default returns Options writing to out.
func Default(out io.Writer) Options { return Options{Out: out} }

// Fig5Blocks is the paper's block-size sweep.
var Fig5Blocks = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

func (o Options) workloads(def []string) []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return def
}

func (o Options) blocks(def []int) []int {
	if len(o.Blocks) > 0 {
		return o.Blocks
	}
	return def
}

// ctx returns the run context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// traceCache returns the shared cache, or a fresh one scoped to the
// current driver call.
func (o Options) traceCache() *sweep.TraceCache {
	if o.Cache != nil {
		return o.Cache
	}
	return NewTraceCache()
}

// NewTraceCache returns a trace cache over the workload registry, suitable
// for Options.Cache when several drivers should share one set of
// materialized traces (e.g. the regen subcommand).
func NewTraceCache() *sweep.TraceCache {
	return sweep.NewTraceCache(sweep.DefaultCacheRefs, openWorkloadTrace)
}

// openWorkloadTrace is the sweep.Opener over the workload registry.
func openWorkloadTrace(name string) (trace.Reader, error) {
	w, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return w.Reader(), nil
}

// mapCells runs fn over every cell index in [0, n) on the sweep engine,
// under the run's cancellation context, and returns the results in
// deterministic cell order. Cell functions receive the sweep's per-cell
// context and must thread it into their replays; they must not touch
// Options.Out — rendering happens after mapCells returns. The first cell
// error, or the run's cancellation, aborts the driver before anything is
// rendered.
func mapCells[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return sweep.Run(o.ctx(), n, sweep.Options{Parallelism: o.Parallelism}, fn)
}

// getWorkloads resolves every name up front so validation errors surface
// before any cell runs or any output is written.
func getWorkloads(names []string) ([]*workload.Workload, error) {
	ws := make([]*workload.Workload, len(names))
	for i, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// flattenGroups lays per-group cell slices out on the flat per-cell grid:
// group gi's cells land at [gi*per, (gi+1)*per).
func flattenGroups[T any](groups [][]T, per int) []T {
	out := make([]T, len(groups)*per)
	for gi, g := range groups {
		copy(out[gi*per:(gi+1)*per], g)
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.2f", v) }
