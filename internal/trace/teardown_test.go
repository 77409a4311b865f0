package trace_test

// Teardown tests for the replay path every sweep cell takes: one packed
// trace-store reader driven to a consumer by trace.DriveContext. Each
// reader has a readahead worker that stops at the end of the file or on
// Close, so a mid-stream cancel or a failing reader must return a typed
// error and leave no readahead worker behind (a reader left open
// mid-stream shows up as a leaked worker). Run them under -race (make
// faults): the interesting failures are ordering windows in the teardown,
// not deterministic logic.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// mixedTrace builds a deterministic mixed trace of at least n references:
// loads and stores sweeping 4 KiB, with an acquire/release pair every 512
// data references and a phase marker every 2048.
func mixedTrace(n int) *trace.Trace {
	tr := trace.New(4)
	for i := 0; tr.Len() < n; i++ {
		p, addr := i%4, mem.Addr(4*(i%1024))
		tr.Append(trace.L(p, addr), trace.S(p, addr))
		if i%256 == 255 {
			tr.Append(trace.A(p, 1<<30), trace.R(p, 1<<30))
		}
		if i%1024 == 1023 {
			tr.Append(trace.P())
		}
	}
	return tr
}

// packedMixedTrace packs a deterministic mixed trace of n references into
// small segments (many readahead hand-offs per replay) and opens it.
func packedMixedTrace(t *testing.T, n int) *tracestore.File {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracestore.Pack(&buf, mixedTrace(n).Reader(), tracestore.WriterOptions{SegmentRefs: 512}); err != nil {
		t.Fatal(err)
	}
	f, err := tracestore.NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// nopConsumer keeps classification out of the measurement: the tests
// exercise the replay's teardown.
type nopConsumer struct{}

func (nopConsumer) Ref(trace.Ref) {}

// TestCancelMidReplayRace is the cancellation race suite: 1 or 8 workers
// each drive their own reader over one shared packed file into 1 or 8
// consumers (case w<workers>_s<consumers>), the shared context is canceled
// at a randomized point, and every worker must wind down — returning
// either nil or the context error, never hanging — with no readahead
// worker outliving the run.
func TestCancelMidReplayRace(t *testing.T) {
	f := packedMixedTrace(t, 32<<10)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ workers, consumers int }{
		{1, 1}, {1, 8}, {8, 1}, {8, 8},
	} {
		workers := tc.workers
		consumers := make([]trace.Consumer, tc.consumers)
		for i := range consumers {
			consumers[i] = nopConsumer{}
		}
		t.Run(fmt.Sprintf("w%d_s%d", workers, tc.consumers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			for trial := 0; trial < 6; trial++ {
				delay := time.Duration(rng.Intn(2000)) * time.Microsecond
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delay, cancel)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						errs[w] = trace.DriveContext(ctx, f.ReaderContext(ctx), consumers...)
					}(w)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					buf := make([]byte, 1<<16)
					t.Fatalf("replay deadlocked after cancel\n%s", buf[:runtime.Stack(buf, true)])
				}
				timer.Stop()
				cancel()
				for w, err := range errs {
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("worker %d: err = %v, want nil or context.Canceled", w, err)
					}
				}
			}
			waitForGoroutines(t, base)
		})
	}
}

// cancelAfter cancels the run once n references have been read.
type cancelAfter struct {
	trace.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Ref, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Reader.Next()
}

func (c *cancelAfter) Close() error { return trace.CloseReader(c.Reader) }

// TestDriveFailureNoLeak: a reader that fails mid-stream, and a cancel
// from inside the reader while it is mid-stream, must each fail the drive
// with the typed error and leak no readahead worker.
func TestDriveFailureNoLeak(t *testing.T) {
	f := packedMixedTrace(t, 32<<10)
	cause := errors.New("disk on fire")
	for _, tc := range []struct {
		name string
		want error
		wrap func(cancel context.CancelFunc, r trace.Reader) trace.Reader
	}{
		{"stream", cause, func(_ context.CancelFunc, r trace.Reader) trace.Reader {
			return fault.ErrorAfter(r, 100, cause)
		}},
		{"cancel", context.Canceled, func(cancel context.CancelFunc, r trace.Reader) trace.Reader {
			return &cancelAfter{Reader: r, n: 100, cancel: cancel}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for iter := 0; iter < 10; iter++ {
				ctx, cancel := context.WithCancel(context.Background())
				err := trace.DriveContext(ctx, tc.wrap(cancel, f.ReaderContext(ctx)), nopConsumer{})
				cancel()
				if !errors.Is(err, tc.want) {
					t.Fatalf("iter %d: err = %v, want %v", iter, err, tc.want)
				}
			}
			waitForGoroutines(t, base)
		})
	}
}

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
