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
	"errors"
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
	// files instead of regenerating — through a file reader of their own
	// in the fused cells (see source), and streamed through the trace
	// cache everywhere else. Nil means every workload generates.
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
	// KeepGoing renders partial reports with failed cells marked FAILED
	// (and a footer note naming the failures) instead of aborting the
	// driver at the first cell error (the CLI's -keep-going flag).
	KeepGoing bool
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

func (o Options) sweepOpts() sweep.Options {
	return sweep.Options{Parallelism: o.Parallelism, KeepGoing: o.KeepGoing}
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
	c := o.Cache
	if c == nil {
		c = NewTraceCache()
	}
	// Re-registering the same stream openers on a shared cache is
	// idempotent, so every driver call may wire its trace files in.
	o.TraceFiles.register(c)
	return c
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
// Options.Out — rendering happens after mapCells returns.
//
// In keep-going mode cell failures come back as the *sweep.Failures second
// result (with the result slice intact at every non-failed index) so the
// driver can render a partial report; any other error — including
// cancellation — aborts the driver.
func mapCells[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, *sweep.Failures, error) {
	res, err := sweep.Run(o.ctx(), n, o.sweepOpts(), fn)
	if fails := sweep.AsFailures(err); fails != nil {
		return res, fails, nil
	}
	if err != nil {
		return nil, nil, err
	}
	return res, nil, nil
}

// ErrPartial marks a keep-going run that finished with failed cells: the
// report was rendered (with the failed cells marked FAILED), but it is not
// the complete grid. The CLI maps it to a distinct exit code so scripts can
// tell a partial report from a clean one; the underlying cell errors stay
// reachable through sweep.AsFailures.
var ErrPartial = errors.New("partial results: some sweep cells failed")

// partialErr converts a keep-going failure set into the driver's return
// value: nil for a complete grid, an error wrapping both ErrPartial and the
// failures otherwise. Drivers return it after rendering, so the report is
// on Out even when the error is non-nil.
func partialErr(fails *sweep.Failures) error {
	if fails.Len() == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrPartial, fails)
}

// failNote appends the standard partial-report footer for a keep-going run
// with failures: one line naming the count, then one line per failed cell
// with its grid coordinates and first error line. No-op when fails is nil.
func failNote(t interface{ Notef(string, ...any) }, fails *sweep.Failures, cellName func(i int) string) {
	if fails.Len() == 0 {
		return
	}
	t.Notef("PARTIAL: %d of the sweep cells failed; failed cells are marked FAILED", fails.Len())
	for _, ce := range fails.Cells {
		t.Notef("  failed %s: %v", cellName(ce.Cell), firstErrLine(ce.Err))
	}
}

// firstErrLine renders err's first line (panic CellErrors carry multi-line
// stacks that belong in logs, not table footers).
func firstErrLine(err error) string {
	s := err.Error()
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
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
// group gi's cells land at [gi*per, (gi+1)*per). Failed groups (nil slices)
// leave zero values, which the renderers skip via the expanded failures.
func flattenGroups[T any](groups [][]T, per int) []T {
	out := make([]T, len(groups)*per)
	for gi, g := range groups {
		copy(out[gi*per:(gi+1)*per], g)
	}
	return out
}

// expandGroupFailures maps the failures of a group-per-workload sweep onto
// the flat per-cell grid: a failed group marks every one of its cells
// failed with the group's error, so the keep-going rendering path is the
// same one the per-cell sweep uses.
func expandGroupFailures(gFails *sweep.Failures, per int) *sweep.Failures {
	if gFails == nil {
		return nil
	}
	out := &sweep.Failures{}
	for _, ce := range gFails.Cells {
		for j := 0; j < per; j++ {
			out.Cells = append(out.Cells, &sweep.CellError{Cell: ce.Cell*per + j, Err: ce.Err, Stack: ce.Stack})
		}
	}
	return out
}

// firstFailurePerGroup maps the failures of a sweep whose cells come in
// groups of per (Table 1's three schemes of one workload) onto the groups:
// a group fails with its first failed cell's error.
func firstFailurePerGroup(fails *sweep.Failures, per int) *sweep.Failures {
	if fails == nil {
		return nil
	}
	out := &sweep.Failures{}
	for _, ce := range fails.Cells {
		g := ce.Cell / per
		if n := len(out.Cells); n > 0 && out.Cells[n-1].Cell == g {
			continue
		}
		out.Cells = append(out.Cells, &sweep.CellError{Cell: g, Err: ce.Err, Stack: ce.Stack})
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.2f", v) }
