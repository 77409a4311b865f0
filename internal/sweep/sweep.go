// Package sweep is the parallel execution engine behind the experiment
// drivers. An experiment is expanded into a grid of independent cells —
// {workload, geometry, protocol/classifier} — and the cells run on a
// bounded worker pool while the results are reassembled in deterministic
// grid order, so the rendered tables and charts are byte-identical to a
// serial run at any parallelism. A keyed, size-bounded trace cache
// (TraceCache) lets every cell replay a workload trace that was
// materialized once instead of regenerating it per cell.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// Metric handles, resolved once. Cell counts are deterministic (they depend
// only on the grid, never on scheduling); the per-cell wall-time histogram
// and the pool-busy time are timing metrics. The busy counter feeds the
// run-level utilization gauge: busy seconds per wall second, where values
// near the worker count mean the pool is saturated.
var (
	mCellsPlanned  = obs.Default.Counter(obs.NameCellsPlanned)
	mCellsStarted  = obs.Default.Counter(obs.NameCellsStarted)
	mCellsFinished = obs.Default.Counter(obs.NameCellsFinished)
	mCellNs        = obs.Default.TimingHistogram(obs.NameCellNs, cellNsBounds)
	mBusyNs        = obs.Default.TimingCounter(obs.NameSweepBusyNs)
)

// cellNsBounds spans 1ms to 100s of per-cell wall time.
var cellNsBounds = []uint64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11}

// runCell evaluates one cell with its timing instrumentation (one time.Now
// pair per cell, amortized over an entire experiment replay) and panic
// containment: a panicking cell is recovered into a *CellError carrying the
// worker stack, so one crashed cell can never take down the whole sweep
// process.
// tr is the worker's span track (nil when tracing is off) and submitNs the
// instant the sweep was submitted: the gap between submission and this
// call is the cell's queue wait, recorded as a zero-depth sweep.cell_wait
// span so pool contention is visible in the trace viewer next to the
// cell's run span.
func runCell[T any](ctx context.Context, tr *span.Track, submitNs int64, i int, fn func(ctx context.Context, i int) (T, error)) (r T, err error) {
	mCellsStarted.Inc()
	if tr != nil {
		tr.Emit(span.OpCellWait, span.Fields{Cell: int32(i)}, submitNs)
		defer tr.Begin(span.OpCell, span.Fields{Cell: int32(i)}).End()
	}
	t0 := time.Now()
	defer func() {
		if p := recover(); p != nil {
			var zero T
			r = zero
			err = &CellError{
				Cell:  i,
				Err:   fmt.Errorf("%w: %v", ErrCellPanic, p),
				Stack: debug.Stack(),
			}
		}
		ns := uint64(time.Since(t0))
		mBusyNs.Add(ns)
		mCellNs.Observe(ns)
		if err == nil {
			mCellsFinished.Inc()
		}
	}()
	return fn(ctx, i)
}

// Options configures Run.
type Options struct {
	// Parallelism bounds the worker pool. Zero or negative means
	// GOMAXPROCS; 1 runs the cells inline on the calling goroutine,
	// recovering the serial path exactly.
	Parallelism int
}

// workers returns the effective pool size for n cells.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	return p
}

// Run evaluates fn(ctx, i) for every cell index in [0, n) on a bounded
// worker pool and returns the results in index order, independent of the
// parallelism and of scheduling. A panicking cell is recovered into a
// *CellError instead of crashing the process.
//
// The first error (lowest cell index among the cells that failed) cancels
// the context so outstanding cells can stop early and unstarted cells are
// skipped; Run then reports that error and no results. Cancellation of the
// caller's context aborts the sweep with ctx.Err().
func Run[T any](ctx context.Context, n int, o Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	mCellsPlanned.Add(uint64(n))
	submitNs := span.Now()
	results := make([]T, n)
	p := o.workers(n)
	if p == 1 {
		// Serial path: record on the caller's track if it has one, else on
		// a dedicated sweep track; cells inherit it through the context.
		tr := span.FromContext(ctx)
		if tr == nil {
			tr = span.Acquire("sweep")
			defer span.Release(tr)
			ctx = span.NewContext(ctx, tr)
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := runCell(ctx, tr, submitNs, i, fn)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each pool worker owns one span track (single-writer); cells
			// inherit it through the worker's context so the drives and
			// fused sweeps inside land on the worker's timeline.
			tr := span.Acquiref("sweep-worker", w)
			defer span.Release(tr)
			wctx := span.NewContext(ctx, tr)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := runCell(wctx, tr, submitNs, i, fn)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		// The caller's cancellation outranks any per-cell failure: partial
		// results of an interrupted sweep are not presented as complete.
		return nil, err
	}
	// Report the lowest-index genuine failure; the cancellation errors its
	// siblings observed after the teardown rank below it.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return nil, err
	}
	if canceled != nil {
		return nil, canceled
	}
	return results, nil
}

// Cell is one point of an experiment grid. Unused dimensions are left at
// their zero value.
type Cell struct {
	// Workload names the benchmark trace.
	Workload string
	// Block is the cache-block size in bytes (0 when the experiment fixes
	// the geometry outside the grid).
	Block int
	// Proto names the protocol, classifier variant or sweep label of the
	// cell ("" when the experiment has no such dimension).
	Proto string
}

// Grid expands the cross product workloads x blocks x protos in
// workload-major order — the order the drivers render in. Empty dimensions
// contribute a single zero value, so Grid(ws, nil, nil) is one cell per
// workload.
func Grid(workloads []string, blocks []int, protos []string) []Cell {
	if len(blocks) == 0 {
		blocks = []int{0}
	}
	if len(protos) == 0 {
		protos = []string{""}
	}
	cells := make([]Cell, 0, len(workloads)*len(blocks)*len(protos))
	for _, w := range workloads {
		for _, b := range blocks {
			for _, p := range protos {
				cells = append(cells, Cell{Workload: w, Block: b, Proto: p})
			}
		}
	}
	return cells
}
