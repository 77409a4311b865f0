package trace

import (
	"context"
	"io"
	"testing"

	"repro/internal/mem"
)

// mustPack packs tr whole, failing the test if it does not fit.
func mustPack(t *testing.T, tr *Trace) *Packed {
	t.Helper()
	p, complete, err := CollectPacked(context.Background(), tr.Reader(), int64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatalf("CollectPacked left a %d-ref trace incomplete", tr.Len())
	}
	return p
}

// edgeTrace holds a reference at every corner of the word layout: address
// 0 and MaxPackedAddr, processor 0 and 65,535, every Kind.
func edgeTrace() *Trace {
	tr := New(1 << 16)
	for _, addr := range []mem.Addr{0, MaxPackedAddr} {
		for _, proc := range []uint16{0, 1<<16 - 1} {
			for k := Kind(0); k < numKinds; k++ {
				tr.Append(Ref{Addr: addr, Proc: proc, Kind: k})
			}
		}
	}
	return tr
}

// TestPackedLayoutEdgesRoundTrip pins the word layout: references at its
// edges come back unchanged through Next and through NextBatch at batch
// sizes below, at and above the drive batch's partial boundaries.
func TestPackedLayoutEdgesRoundTrip(t *testing.T) {
	if MaxPackedAddr != 1<<45-1 {
		t.Fatalf("MaxPackedAddr = %#x, want 2^45-1", MaxPackedAddr)
	}
	tr := edgeTrace()
	p := mustPack(t, tr)
	if p.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", p.Len(), tr.Len())
	}

	r := p.Reader()
	if r.NumProcs() != tr.Procs {
		t.Fatalf("NumProcs = %d, want %d", r.NumProcs(), tr.Procs)
	}
	var got []Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ref)
	}
	if !refsEqual(got, tr.Refs) {
		t.Fatalf("Next replay diverges:\n got %v\nwant %v", got, tr.Refs)
	}
	for _, size := range []int{1, 7, driveBatch} {
		if got := drainBatch(t, p.Reader(), size); !refsEqual(got, tr.Refs) {
			t.Fatalf("NextBatch(%d) replay diverges:\n got %v\nwant %v", size, got, tr.Refs)
		}
	}
}

// TestCollectPackedRejectsUnpackable: a reference the word cannot hold
// makes the drain incomplete, however much budget is left, and the
// references drained before it still count toward trace.collect.refs.
func TestCollectPackedRejectsUnpackable(t *testing.T) {
	for _, bad := range []Ref{
		{Addr: MaxPackedAddr + 1, Kind: Load},
		{Addr: 1, Kind: maxPackedKind + 1},
	} {
		tr := New(1, L(0, 1), S(0, 2), bad, L(0, 3))
		before := mCollectRefs.Value()
		p, complete, err := CollectPacked(context.Background(), tr.Reader(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if complete || p != nil {
			t.Errorf("%+v: CollectPacked = (%v, %v), want (nil, false)", bad, p, complete)
		}
		if n := mCollectRefs.Value() - before; n != uint64(tr.Len()) {
			t.Errorf("%+v: trace.collect.refs grew by %d, want %d", bad, n, tr.Len())
		}
	}
}

// TestPackedNextBatchAllocs: a cached replay allocates nothing per pass
// once its reader exists.
func TestPackedNextBatchAllocs(t *testing.T) {
	p := mustPack(t, cancelTestTrace(16<<10))
	r := p.Reader().(*packedReader)
	buf := make([]Ref, driveBatch)
	allocs := testing.AllocsPerRun(10, func() {
		r.words = p.words
		for {
			if _, err := r.NextBatch(buf); err == io.EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("packed NextBatch loop allocates %v per pass, want 0", allocs)
	}
}
