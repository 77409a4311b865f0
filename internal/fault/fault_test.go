package fault_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The differential robustness suite: every injector runs under every
// parallelism/shard combination the CLI exposes, and the assertions are
// always the same three — typed errors survive the trip up through shard,
// sweep and driver layers (errors.Is/As), nothing deadlocks or leaks
// goroutines, and partial output is never presented as complete.

// parShardGrid is the -j × -shards combinations every fault must survive.
var parShardGrid = []struct{ par, shards int }{
	{1, 1}, {1, 8}, {8, 1}, {8, 8},
}

// testTrace builds the deterministic shared-access trace the suite replays:
// 4 processors alternating loads and stores over a shared region, with
// enough references that every injector has room to fire mid-stream.
func testTrace() *trace.Trace {
	const procs, rounds = 4, 512
	tr := trace.New(procs)
	for i := 0; i < rounds; i++ {
		for p := 0; p < procs; p++ {
			addr := mem.Addr(4 * ((i + p) % 64))
			tr.Append(trace.L(p, addr), trace.S(p, addr+256))
		}
	}
	return tr
}

var geometry = func() mem.Geometry {
	g, err := mem.NewGeometry(64)
	if err != nil {
		panic(err)
	}
	return g
}()

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating scheduler lag.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shardedClassify block-shard-classifies the test trace with every shard
// replaying its own reader from open.
func shardedClassify(ctx context.Context, shards int, open func() trace.Reader) (core.Counts, error) {
	counts, _, err := core.ShardedClassify(ctx, func(int) (trace.Reader, error) { return open(), nil },
		testTrace().Procs, geometry, shards)
	return counts, err
}

// classifySweep runs cells sweep cells at the given parallelism, where each
// cell block-shard-classifies readers produced by open.
func classifySweep(ctx context.Context, cells, par, shards int, keepGoing bool,
	open func(cell int) trace.Reader) ([]core.Counts, error) {
	return sweep.Run(ctx, cells, sweep.Options{Parallelism: par, KeepGoing: keepGoing},
		func(ctx context.Context, i int) (core.Counts, error) {
			return shardedClassify(ctx, shards, func() trace.Reader { return open(i) })
		})
}

// TestErrorAfterPropagates: a read error injected mid-stream must surface
// from every layer stack as the typed *fault.Error, matchable with both
// errors.Is and errors.As, with no goroutine left behind.
func TestErrorAfterPropagates(t *testing.T) {
	tr := testTrace()
	for _, tc := range parShardGrid {
		t.Run(fmt.Sprintf("j%d_shards%d", tc.par, tc.shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cause := errors.New("disk on fire")
			_, err := classifySweep(context.Background(), 4, tc.par, tc.shards, false,
				func(int) trace.Reader { return fault.ErrorAfter(tr.Reader(), 100, cause) })
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("errors.Is(err, ErrInjected) = false for %v", err)
			}
			if !errors.Is(err, cause) {
				t.Errorf("errors.Is(err, cause) = false for %v", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("errors.As(err, *fault.Error) = false for %v", err)
			}
			if fe.Op != "read" || fe.After != 100 {
				t.Errorf("fault.Error = {Op:%q After:%d}, want {read 100}", fe.Op, fe.After)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestKeepGoingIsolatesFailedCells: with keep-going, a failing cell is
// quarantined into *sweep.Failures while its siblings' results come back
// intact and bit-identical to a clean run; the failed cell's slot stays
// zero — a partial grid is never passed off as complete.
func TestKeepGoingIsolatesFailedCells(t *testing.T) {
	tr := testTrace()
	clean, err := shardedClassify(context.Background(), 1, tr.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range parShardGrid {
		t.Run(fmt.Sprintf("j%d_shards%d", tc.par, tc.shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			const cells = 6
			res, err := classifySweep(context.Background(), cells, tc.par, tc.shards, true,
				func(i int) trace.Reader {
					if i%2 == 0 {
						return fault.ErrorAfter(tr.Reader(), 50, nil)
					}
					return tr.Reader()
				})
			fails := sweep.AsFailures(err)
			if fails == nil {
				t.Fatalf("want *sweep.Failures, got %v", err)
			}
			if fails.Len() != cells/2 {
				t.Errorf("Len() = %d, want %d", fails.Len(), cells/2)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("injected sentinel lost through Failures: %v", err)
			}
			for i := 0; i < cells; i++ {
				failed := fails.Failed(i) != nil
				if failed != (i%2 == 0) {
					t.Errorf("cell %d: Failed = %v, want %v", i, failed, i%2 == 0)
				}
				if failed && res[i] != (core.Counts{}) {
					t.Errorf("cell %d failed but has non-zero counts %+v", i, res[i])
				}
				if !failed && res[i] != clean {
					t.Errorf("cell %d: counts %+v differ from clean run %+v", i, res[i], clean)
				}
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestScrambledProcsPanicIsRecovered: a corrupted processor id panics the
// classifier; the sweep engine must turn that panic into a typed CellError
// carrying the stack instead of crashing the process. Shards stay at 1 so
// the panic fires on the cell goroutine the sweep guards — panic isolation
// is a sweep-cell contract, not a shard-consumer one.
func TestScrambledProcsPanicIsRecovered(t *testing.T) {
	tr := testTrace()
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := classifySweep(context.Background(), 4, par, 1, true,
				func(int) trace.Reader { return fault.ScrambleProcs(tr.Reader(), 200) })
			fails := sweep.AsFailures(err)
			if fails == nil {
				t.Fatalf("want *sweep.Failures, got %v", err)
			}
			if !errors.Is(err, sweep.ErrCellPanic) {
				t.Errorf("errors.Is(err, ErrCellPanic) = false for %v", err)
			}
			for _, ce := range fails.Cells {
				if len(ce.Stack) == 0 {
					t.Errorf("cell %d: panic CellError has no stack", ce.Cell)
				}
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestStallDrainsOnCancel: cancelling mid-replay of a stalling source must
// drain the whole pipeline promptly — no deadlock, no leak — at every
// parallelism/shard combination.
func TestStallDrainsOnCancel(t *testing.T) {
	tr := testTrace()
	for _, tc := range parShardGrid {
		t.Run(fmt.Sprintf("j%d_shards%d", tc.par, tc.shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := classifySweep(ctx, 4, tc.par, tc.shards, false,
				func(int) trace.Reader { return fault.Stall(tr.Reader(), 64, time.Millisecond) })
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("cancellation took %v, want < 2s", elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			cancel()
			waitForGoroutines(t, base)
		})
	}
}

// TestFlakyClosePropagates: the replay pumps promise to surface the
// reader's close error when the stream itself drained cleanly; a flaky
// Close must therefore fail the run with the typed error, at any shard
// count.
func TestFlakyClosePropagates(t *testing.T) {
	tr := testTrace()
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := shardedClassify(context.Background(), shards,
				func() trace.Reader { return fault.FlakyClose(tr.Reader(), nil) })
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("errors.Is(err, ErrInjected) = false for %v", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Op != "close" {
				t.Errorf("want *fault.Error{Op: close}, got %v", err)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestCorruptAddrsIsDeterministicAndVisible: silent in-memory corruption
// must change the classification (it would be a useless injector if it
// didn't) and must change it identically at every shard count — every
// shard's reader is corrupted identically before its shard filter, so
// shard invariance still holds.
func TestCorruptAddrsIsDeterministicAndVisible(t *testing.T) {
	tr := testTrace()
	clean, err := shardedClassify(context.Background(), 1, tr.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var corrupted []core.Counts
	for _, shards := range []int{1, 8} {
		counts, err := shardedClassify(context.Background(), shards,
			func() trace.Reader { return fault.CorruptAddrs(tr.Reader(), 100) })
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		corrupted = append(corrupted, counts)
	}
	if corrupted[0] == clean {
		t.Error("corrupted replay produced the clean counts — corruption invisible")
	}
	if corrupted[0] != corrupted[1] {
		t.Errorf("corrupted counts differ across shard counts: %+v vs %+v",
			corrupted[0], corrupted[1])
	}
}

// TestFailFastNeverReturnsPartialResults: without keep-going, a failing
// cell aborts the sweep and the result slice is withheld entirely — the
// caller can never mistake a partial grid for a complete one.
func TestFailFastNeverReturnsPartialResults(t *testing.T) {
	tr := testTrace()
	for _, tc := range parShardGrid {
		t.Run(fmt.Sprintf("j%d_shards%d", tc.par, tc.shards), func(t *testing.T) {
			res, err := classifySweep(context.Background(), 6, tc.par, tc.shards, false,
				func(i int) trace.Reader {
					if i == 3 {
						return fault.ErrorAfter(tr.Reader(), 10, nil)
					}
					return tr.Reader()
				})
			if err == nil {
				t.Fatal("want an error from the failing cell")
			}
			if res != nil {
				t.Errorf("fail-fast returned results %v alongside error %v", res, err)
			}
		})
	}
}

// drain replays r to completion per-reference and returns the refs seen
// and the terminal error (io.EOF folded to nil).
func drain(r trace.Reader) (int, error) {
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// TestStallAtFiresOnce: the one-shot stall must delay exactly once, at the
// requested reference, and leave the stream contents untouched.
func TestStallAtFiresOnce(t *testing.T) {
	tr := testTrace()
	want, err := drain(tr.Reader())
	if err != nil {
		t.Fatal(err)
	}

	const at, d = 100, 30 * time.Millisecond
	r := fault.StallAt(tr.Reader(), at, d)
	// The refs before the stall point must deliver with no sleep: a full
	// pre-stall drain far faster than d proves the spike has not fired.
	start := time.Now()
	for i := 0; i < at; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}
	if e := time.Since(start); e >= d {
		t.Fatalf("pre-stall refs took %v, want < %v", e, d)
	}
	// The next ref carries the spike.
	start = time.Now()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < d {
		t.Fatalf("stalled ref took %v, want >= %v", e, d)
	}
	// The remainder streams clean and complete, again with no sleep.
	start = time.Now()
	rest, err := drain(r)
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e >= d {
		t.Fatalf("post-stall refs took %v, want < %v", e, d)
	}
	if got := at + 1 + rest; got != want {
		t.Fatalf("stalled stream delivered %d refs, want %d", got, want)
	}
}
