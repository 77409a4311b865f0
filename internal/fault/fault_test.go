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

// The differential robustness suite: every injector runs serially and on
// the parallel sweep, and the assertions are always the same three — typed
// errors survive the trip up through the replay, sweep and driver layers
// (errors.Is/As), nothing deadlocks or leaks goroutines, and partial
// output is never presented as complete.

// parGrid is the -j values every fault must survive.
var parGrid = []int{1, 8}

// gridName names a parGrid case.
func gridName(par int) string { return fmt.Sprintf("j%d", par) }

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

// classify runs the Appendix A classifier over one serial drive of r.
func classify(ctx context.Context, r trace.Reader) (core.Counts, error) {
	c := core.NewClassifier(r.NumProcs(), geometry)
	if err := trace.DriveContext(ctx, r, c); err != nil {
		return core.Counts{}, err
	}
	return c.Finish(), nil
}

// classifySweep runs cells sweep cells at the given parallelism, where each
// cell classifies the reader open returns for it.
func classifySweep(ctx context.Context, cells, par int,
	open func(cell int) trace.Reader) ([]core.Counts, error) {
	return sweep.Run(ctx, cells, sweep.Options{Parallelism: par},
		func(ctx context.Context, i int) (core.Counts, error) {
			return classify(ctx, open(i))
		})
}

// TestErrorAfterPropagates: a read error injected mid-stream must surface
// from every layer stack as the typed *fault.Error, matchable with both
// errors.Is and errors.As, with no goroutine left behind.
func TestErrorAfterPropagates(t *testing.T) {
	tr := testTrace()
	for _, par := range parGrid {
		t.Run(gridName(par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cause := errors.New("disk on fire")
			_, err := classifySweep(context.Background(), 4, par,
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

// TestScrambledProcsPanicIsRecovered: a corrupted processor id panics the
// classifier; the sweep engine must fail the sweep with a typed CellError
// carrying the stack instead of crashing the process.
func TestScrambledProcsPanicIsRecovered(t *testing.T) {
	tr := testTrace()
	for _, par := range parGrid {
		t.Run(gridName(par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			res, err := classifySweep(context.Background(), 4, par,
				func(int) trace.Reader { return fault.ScrambleProcs(tr.Reader(), 200) })
			if !errors.Is(err, sweep.ErrCellPanic) {
				t.Errorf("errors.Is(err, ErrCellPanic) = false for %v", err)
			}
			var ce *sweep.CellError
			if !errors.As(err, &ce) {
				t.Fatalf("errors.As(err, *sweep.CellError) = false for %v", err)
			}
			if len(ce.Stack) == 0 {
				t.Errorf("cell %d: panic CellError has no stack", ce.Cell)
			}
			if res != nil {
				t.Errorf("panicked sweep returned results %v", res)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestStallDrainsOnCancel: cancelling mid-replay of a stalling source must
// drain the whole pipeline promptly — no deadlock, no leak — at every
// parallelism.
func TestStallDrainsOnCancel(t *testing.T) {
	tr := testTrace()
	for _, par := range parGrid {
		t.Run(gridName(par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := classifySweep(ctx, 4, par,
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
// Close must therefore fail the run with the typed error.
func TestFlakyClosePropagates(t *testing.T) {
	tr := testTrace()
	t.Run("serial_drive", func(t *testing.T) {
		base := runtime.NumGoroutine()
		_, err := classify(context.Background(), fault.FlakyClose(tr.Reader(), nil))
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

// TestCorruptAddrsIsDeterministicAndVisible: silent in-memory corruption
// must change the classification (it would be a useless injector if it
// didn't) and must change it identically on every replay.
func TestCorruptAddrsIsDeterministicAndVisible(t *testing.T) {
	tr := testTrace()
	clean, err := classify(context.Background(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	var corrupted []core.Counts
	for run := 0; run < 2; run++ {
		counts, err := classify(context.Background(), fault.CorruptAddrs(tr.Reader(), 100))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		corrupted = append(corrupted, counts)
	}
	if corrupted[0] == clean {
		t.Error("corrupted replay produced the clean counts — corruption invisible")
	}
	if corrupted[0] != corrupted[1] {
		t.Errorf("corrupted counts differ between replays: %+v vs %+v",
			corrupted[0], corrupted[1])
	}
}

// TestFailFastNeverReturnsPartialResults: a failing cell aborts the sweep
// and the result slice is withheld entirely — the caller can never mistake
// a partial grid for a complete one.
func TestFailFastNeverReturnsPartialResults(t *testing.T) {
	tr := testTrace()
	for _, par := range parGrid {
		t.Run(gridName(par), func(t *testing.T) {
			res, err := classifySweep(context.Background(), 6, par,
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
