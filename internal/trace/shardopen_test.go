package trace_test

// Tests for the shard-native sharded pipeline: core.RunShardedOpen over
// in-memory and segment-skipping tracestore readers. The routing tests
// check what each shard consumer sees. The teardown tests run over
// tracestore readers, each with a readahead worker that stops at the end
// of its segments or on Close: a mid-stream cancel or a failing shard must
// return a typed error and leave no shard goroutine or readahead worker
// behind (a reader left open mid-stream shows up as a leaked worker). Run
// them under -race (make faults): the interesting failures are ordering
// windows in the teardown, not deterministic logic.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
	return packTrace(t, mixedTrace(n), 512)
}

// packTrace packs tr into segments of segRefs references and opens it.
func packTrace(t *testing.T, tr *trace.Trace, segRefs int) *tracestore.File {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracestore.Pack(&buf, tr.Reader(), tracestore.WriterOptions{SegmentRefs: segRefs}); err != nil {
		t.Fatal(err)
	}
	f, err := tracestore.NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// nopConsumer keeps classification out of the measurement: the tests
// exercise the pipeline's teardown.
type nopConsumer struct{}

func (nopConsumer) Ref(trace.Ref) {}

// runShardedFile runs one RunShardedOpen pipeline of shards consumers over
// f's segment-skipping readers, passing each opened reader through wrap.
func runShardedFile(ctx context.Context, f *tracestore.File, shards int,
	wrap func(shard int, r trace.Reader) (trace.Reader, error)) error {
	g := mem.MustGeometry(64)
	_, err := core.RunShardedOpen(ctx,
		func(shard int) (trace.Reader, error) {
			return wrap(shard, f.ShardReaderContext(ctx, shard, shards, g))
		},
		shards, trace.BlockShard(g, shards),
		func(int) nopConsumer { return nopConsumer{} },
		func(nopConsumer) int { return 0 },
		func(int, int) int { return 0 })
	return err
}

// TestCancelMidReplayRace is the cancellation race suite: for every
// worker/shard combination, cancel the shared context at a randomized point
// while the workers replay through sharded pipelines over packed-trace
// readers, and require that every path winds down — each worker returns
// either a clean result or the context error, never a hang — and no shard
// goroutine or readahead worker outlives the run.
func TestCancelMidReplayRace(t *testing.T) {
	f := packedMixedTrace(t, 32<<10)
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("w%d_s%d", workers, shards), func(t *testing.T) {
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
							errs[w] = runShardedFile(ctx, f, shards,
								func(_ int, r trace.Reader) (trace.Reader, error) { return r, nil })
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
}

// cancelAfter cancels the run once its shard has read n references.
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

// TestShardedOpenFailureNoLeak: a shard whose reader fails mid-stream, a
// shard whose open fails after its siblings opened, and a cancel while the
// shards are mid-stream must each fail the whole pipeline with the typed
// error and leak no shard goroutine or readahead worker.
func TestShardedOpenFailureNoLeak(t *testing.T) {
	f := packedMixedTrace(t, 32<<10)
	cause := errors.New("disk on fire")
	for _, tc := range []struct {
		name string
		want error
		wrap func(cancel context.CancelFunc, shard int, r trace.Reader) (trace.Reader, error)
	}{
		{"stream", cause, func(_ context.CancelFunc, shard int, r trace.Reader) (trace.Reader, error) {
			if shard == 0 {
				return fault.ErrorAfter(r, 100, cause), nil
			}
			return r, nil
		}},
		{"open", cause, func(_ context.CancelFunc, shard int, r trace.Reader) (trace.Reader, error) {
			if shard == 7 {
				trace.CloseReader(r) //nolint:errcheck // the failed open owns r
				return nil, cause
			}
			return r, nil
		}},
		{"cancel", context.Canceled, func(cancel context.CancelFunc, shard int, r trace.Reader) (trace.Reader, error) {
			if shard == 7 {
				return &cancelAfter{Reader: r, n: 100, cancel: cancel}, nil
			}
			return r, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for iter := 0; iter < 10; iter++ {
				ctx, cancel := context.WithCancel(context.Background())
				err := runShardedFile(ctx, f, 8, func(shard int, r trace.Reader) (trace.Reader, error) {
					return tc.wrap(cancel, shard, r)
				})
				cancel()
				if !errors.Is(err, tc.want) {
					t.Fatalf("iter %d: err = %v, want %v", iter, err, tc.want)
				}
			}
			waitForGoroutines(t, base)
		})
	}
}

// routed returns each of n shards' expected stream under the block key of
// g: its own data references plus every sync and phase reference, in
// stream order.
func routed(tr *trace.Trace, g mem.Geometry, n int) [][]trace.Ref {
	want := make([][]trace.Ref, n)
	for _, ref := range tr.Refs {
		for i := range want {
			if !ref.Kind.IsData() || int(uint64(g.BlockOf(ref.Addr))%uint64(n)) == i {
				want[i] = append(want[i], ref)
			}
		}
	}
	return want
}

// sameRefs fails the test at the first difference between got and want.
func sameRefs(t *testing.T, what string, got, want []trace.Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d refs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s ref %d: got %v, want %v", what, j, got[j], want[j])
		}
	}
}

// recorder keeps every reference its shard delivers, in order.
type recorder struct{ refs []trace.Ref }

func (r *recorder) Ref(ref trace.Ref) { r.refs = append(r.refs, ref) }

// unbatched hides a source's NextBatch (and Close) to force the per-ref
// path.
type unbatched struct{ trace.Reader }

// TestShardedOpenRoutingAndOrder checks the routing rules end to end
// through RunShardedOpen: each data reference reaches exactly its key's
// shard consumer, every sync and phase reference reaches every shard
// consumer, and each consumer sees its references in stream order — for N
// in {1, 2, 3, 8}, over batched, unbatched and segment-skipping packed
// sources.
func TestShardedOpenRoutingAndOrder(t *testing.T) {
	tr := mixedTrace(12 << 10)
	f := packTrace(t, tr, 64)
	g := mem.MustGeometry(64)
	for _, n := range []int{1, 2, 3, 8} {
		for name, open := range map[string]func(shard int) (trace.Reader, error){
			"batched":   func(int) (trace.Reader, error) { return tr.Reader(), nil },
			"unbatched": func(int) (trace.Reader, error) { return unbatched{tr.Reader()}, nil },
			"packed": func(shard int) (trace.Reader, error) {
				return f.ShardReaderContext(context.Background(), shard, n, g), nil
			},
		} {
			got, err := core.RunShardedOpen(context.Background(), open, n, trace.BlockShard(g, n),
				func(int) *recorder { return &recorder{} },
				func(r *recorder) [][]trace.Ref { return [][]trace.Ref{r.refs} },
				func(a, b [][]trace.Ref) [][]trace.Ref { return append(a, b...) })
			if err != nil || len(got) != n {
				t.Fatalf("n=%d %s: %d shard results, err %v", n, name, len(got), err)
			}
			for i, want := range routed(tr, g, n) {
				sameRefs(t, fmt.Sprintf("n=%d %s shard %d", n, name, i), got[i], want)
			}
		}
	}
}

// TestShardReaderSkipBatchMatchesNext: a shard's segment-skipping packed
// reader, filtered by a ShardReader and drained through NextBatch at
// awkward buffer sizes, must yield exactly the shard's routed subsequence
// of the whole trace.
func TestShardReaderSkipBatchMatchesNext(t *testing.T) {
	tr := mixedTrace(8 << 10)
	f := packTrace(t, tr, 64)
	g := mem.MustGeometry(64)
	skipped := 0
	for _, n := range []int{2, 3, 8} {
		for shard, want := range routed(tr, g, n) {
			for _, s := range f.Segments() {
				if s.SideRefs == 0 && !s.HasBlockShard(g, shard, n) {
					skipped++
				}
			}
			for _, size := range []int{1, 7, 129, 5000} {
				sr := trace.NewShardReader(f.ShardReaderContext(context.Background(), shard, n, g), shard, trace.BlockShard(g, n))
				var got []trace.Ref
				buf := make([]trace.Ref, size)
				for {
					k, err := sr.NextBatch(buf)
					got = append(got, buf[:k]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				sameRefs(t, fmt.Sprintf("n=%d shard %d buf %d", n, shard, size), got, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no shard skipped a segment: the packed trace does not exercise the skip")
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
