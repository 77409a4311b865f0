package workload

// Shard-native generation tests: for every workload, N shard readers over N
// fresh generations must partition the trace by the routing rules — data
// references by block, sync/phase references to every shard, stream order
// kept — and abandoning a shard-native stream early must not leak the
// generator goroutine.

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

func drain(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader error: %v", err)
		}
		out = append(out, ref)
	}
}

// unbatched hides a generator's NextBatch to force the per-ref path.
type unbatched struct{ r trace.Reader }

func (u unbatched) NumProcs() int            { return u.r.NumProcs() }
func (u unbatched) Next() (trace.Ref, error) { return u.r.Next() }
func (u unbatched) Close() error             { return trace.CloseReader(u.r) }

// TestShardReaderRoutingAndOrder checks the routing rules on shard-native
// generation for every small workload: N ShardReaders, each over its own
// fresh generation, keep each data reference on exactly its key's shard,
// keep every sync/phase reference on every shard, and keep stream order —
// for N in {1, 2, 3, 8}, over batched and unbatched generators.
func TestShardReaderRoutingAndOrder(t *testing.T) {
	g := mem.MustGeometry(64)
	for _, name := range SmallSet() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		full, err := w.Collect()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			key := trace.BlockShard(g, shards)
			want := make([][]trace.Ref, shards)
			for _, ref := range full.Refs {
				if ref.Kind.IsData() {
					i := key(ref)
					want[i] = append(want[i], ref)
					continue
				}
				for i := range want {
					want[i] = append(want[i], ref)
				}
			}
			for _, batched := range []bool{true, false} {
				for i := 0; i < shards; i++ {
					src := w.Reader()
					if !batched {
						src = unbatched{src}
					}
					got := drain(t, trace.NewShardReader(src, i, key))
					if len(got) != len(want[i]) {
						t.Fatalf("%s shards=%d batched=%v shard %d: %d refs, want %d",
							name, shards, batched, i, len(got), len(want[i]))
					}
					for j := range want[i] {
						if got[j] != want[i][j] {
							t.Fatalf("%s shards=%d batched=%v shard %d ref %d: got %v, want %v",
								name, shards, batched, i, j, got[j], want[i][j])
						}
					}
				}
			}
		}
	}
}

// TestRepeatReader: times back-to-back generations in one stream, read on
// the per-ref path across the generation boundaries, and Close releases
// the in-flight generation.
func TestRepeatReader(t *testing.T) {
	w, err := Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	one := drain(t, w.Reader())
	got := drain(t, w.RepeatReader(3))
	if len(got) != 3*len(one) {
		t.Fatalf("3 repeats: %d refs, want %d", len(got), 3*len(one))
	}
	for i, r := range got {
		if r != one[i%len(one)] {
			t.Fatalf("ref %d: got %v, want %v", i, r, one[i%len(one)])
		}
	}
	r := w.RepeatReader(2)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := trace.CloseReader(r); err != nil {
		t.Fatal(err)
	}
}

// TestShardReaderEarlyCloseNoLeak is the goroutine-leak regression check:
// closing a shard-native stream after a partial read must stop the backing
// generator goroutine.
func TestShardReaderEarlyCloseNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := mem.MustGeometry(64)
	key := trace.BlockShard(g, 4)
	w, err := Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 20; iter++ {
		r := trace.NewShardReader(w.Reader(), iter%4, key)
		for j := 0; j < 5; j++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := trace.CloseReader(r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("generator goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
