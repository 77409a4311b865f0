package trace

// ShardReader tests: the routing rules checked directly — every data
// reference kept by exactly its key's shard, every sync/phase reference by
// every shard, stream order kept — on both the Next and NextBatch paths,
// over batched and unbatched sources; plus Close and error propagation.

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// collectShard drains one shard into a slice.
func collectShard(t *testing.T, r Reader) []Ref {
	t.Helper()
	var out []Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("shard error: %v", err)
		}
		out = append(out, ref)
	}
}

func randomShardTrace(rng *rand.Rand, procs, n int) *Trace {
	tr := New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(10) {
		case 0:
			tr.Append(A(p, 1000))
		case 1:
			tr.Append(R(p, 1000))
		case 2:
			tr.Append(P())
		case 3, 4:
			tr.Append(S(p, mem.Addr(rng.Intn(96))))
		default:
			tr.Append(L(p, mem.Addr(rng.Intn(96))))
		}
	}
	return tr
}

// unbatchedReader hides a source's NextBatch to force the per-ref path.
type unbatchedReader struct{ r Reader }

func (u unbatchedReader) NumProcs() int      { return u.r.NumProcs() }
func (u unbatchedReader) Next() (Ref, error) { return u.r.Next() }

// TestShardReaderRoutingAndOrder checks the routing rules directly: N
// ShardReaders over N independent readers of one trace keep each data
// reference on exactly its key's shard, keep every sync/phase reference on
// every shard, and keep stream order — for N in {1, 2, 3, 8}, over batched
// and unbatched sources.
func TestShardReaderRoutingAndOrder(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tr := randomShardTrace(rand.New(rand.NewSource(seed)), 4, 3000)
		g := mem.MustGeometry(16)
		for _, n := range []int{1, 2, 3, 8} {
			key := BlockShard(g, n)
			// Expected per-shard subsequences, built serially: each data
			// reference on its key's shard, sync/phase ones on all shards.
			want := make([][]Ref, n)
			for _, ref := range tr.Refs {
				if ref.Kind.IsData() {
					i := int(uint64(g.BlockOf(ref.Addr)) % uint64(n))
					want[i] = append(want[i], ref)
					continue
				}
				for i := range want {
					want[i] = append(want[i], ref)
				}
			}
			for _, batched := range []bool{true, false} {
				var data uint64
				for i := 0; i < n; i++ {
					var src Reader = tr.Reader()
					if !batched {
						src = unbatchedReader{src}
					}
					sr := NewShardReader(src, i, key)
					if sr.NumProcs() != tr.Procs {
						t.Fatalf("NumProcs %d, want %d", sr.NumProcs(), tr.Procs)
					}
					got := collectShard(t, sr)
					if len(got) != len(want[i]) {
						t.Fatalf("seed %d n=%d batched=%v shard %d: %d refs, want %d",
							seed, n, batched, i, len(got), len(want[i]))
					}
					for j := range want[i] {
						if got[j] != want[i][j] {
							t.Fatalf("seed %d n=%d batched=%v shard %d ref %d: got %v, want %v",
								seed, n, batched, i, j, got[j], want[i][j])
						}
						if got[j].Kind.IsData() {
							data++
						}
					}
				}
				if data != tr.DataRefs() {
					t.Fatalf("n=%d batched=%v: shards kept %d data refs, trace has %d", n, batched, data, tr.DataRefs())
				}
			}
		}
	}
}

// TestShardReaderSingleShardIdentity: a one-shard ShardReader must
// reproduce the source stream exactly, data and sync references alike, on
// both the Next and NextBatch paths, over batched and unbatched sources.
func TestShardReaderSingleShardIdentity(t *testing.T) {
	tr := randomShardTrace(rand.New(rand.NewSource(3)), 3, 1500)
	key := BlockShard(mem.MustGeometry(16), 1)
	for _, batched := range []bool{true, false} {
		src := func() Reader {
			if batched {
				return tr.Reader()
			}
			return unbatchedReader{tr.Reader()}
		}
		for path, got := range map[string][]Ref{
			"Next":      collectShard(t, NewShardReader(src(), 0, key)),
			"NextBatch": drainBatch(t, NewShardReader(src(), 0, key), 129),
		} {
			if !refsEqual(got, tr.Refs) {
				t.Fatalf("batched=%v %s: one-shard stream (%d refs) differs from the source (%d refs)",
					batched, path, len(got), tr.Len())
			}
		}
	}
}

// TestShardReaderBatchMatchesNext: the NextBatch path must produce the same
// subsequence as the Next path, for both batched and unbatched sources, at
// awkward buffer sizes.
func TestShardReaderBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomShardTrace(rng, 4, 2500)
	g := mem.MustGeometry(8)
	const n = 3
	key := BlockShard(g, n)

	for shard := 0; shard < n; shard++ {
		want := collectShard(t, NewShardReader(tr.Reader(), shard, key))
		for _, bufSize := range []int{1, 7, driveBatch, 5000} {
			for _, batched := range []bool{true, false} {
				var src Reader = tr.Reader()
				if !batched {
					src = unbatchedReader{src}
				}
				sr := NewShardReader(src, shard, key)
				var got []Ref
				buf := make([]Ref, bufSize)
				for {
					cnt, err := sr.NextBatch(buf)
					got = append(got, buf[:cnt]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("shard %d buf %d batched %v: %d refs, want %d",
						shard, bufSize, batched, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("shard %d buf %d batched %v ref %d: got %v, want %v",
							shard, bufSize, batched, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestShardReaderZeroBuf: a zero-length NextBatch buffer returns (0, nil)
// without consuming the source.
func TestShardReaderZeroBuf(t *testing.T) {
	tr := New(2, L(0, 0), L(1, 1))
	sr := NewShardReader(tr.Reader(), 0, func(Ref) int { return 0 })
	if n, err := sr.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = %d, %v; want 0, nil", n, err)
	}
	if got := collectShard(t, sr); len(got) != 2 {
		t.Fatalf("stream consumed by empty NextBatch: %d refs left, want 2", len(got))
	}
}

// errAfterReader yields n loads, then a non-EOF error. It records whether
// it was closed.
type errAfterReader struct {
	n      int
	pos    int
	err    error
	closed bool
}

func (r *errAfterReader) NumProcs() int { return 2 }
func (r *errAfterReader) Next() (Ref, error) {
	if r.pos >= r.n {
		return Ref{}, r.err
	}
	r.pos++
	return L(0, mem.Addr(r.pos)), nil
}
func (r *errAfterReader) Close() error {
	r.closed = true
	return nil
}

// TestShardReaderCloseAndErrors: Close reaches the source, a source error
// surfaces, and the constructor rejects bad arguments.
func TestShardReaderCloseAndErrors(t *testing.T) {
	src := &errAfterReader{n: 10, err: io.EOF}
	sr := NewShardReader(src, 0, func(Ref) int { return 0 })
	if sr.NumProcs() != src.NumProcs() {
		t.Fatalf("NumProcs = %d, want %d", sr.NumProcs(), src.NumProcs())
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if !src.closed {
		t.Error("source not closed through ShardReader.Close")
	}

	srcErr := io.ErrUnexpectedEOF
	sr = NewShardReader(&errAfterReader{n: 3, err: srcErr}, 1, func(Ref) int { return 0 })
	var err error
	for err == nil {
		_, err = sr.Next()
	}
	if err != srcErr {
		t.Fatalf("source error not propagated: got %v", err)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil key", func() { NewShardReader(New(1).Reader(), 0, nil) })
	mustPanic("negative shard", func() { NewShardReader(New(1).Reader(), -1, func(Ref) int { return 0 }) })
}
