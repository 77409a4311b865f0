package trace

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/mem"
)

// batchTestTrace builds a small mixed trace: data refs across two procs and
// a few blocks, with sync and phase refs sprinkled in.
func batchTestTrace() *Trace {
	t := New(2)
	for i := 0; i < 3000; i++ {
		p := i % 2
		a := mem.Addr(i % 97)
		switch i % 11 {
		case 3:
			t.Append(A(p, 1000))
		case 7:
			t.Append(R(p, 1000))
		case 9:
			t.Append(P())
		default:
			if i%3 == 0 {
				t.Append(S(p, a))
			} else {
				t.Append(L(p, a))
			}
		}
	}
	return t
}

// drainBatch drains a reader exclusively through NextBatch, with a batch
// size chosen to hit partial-batch boundaries.
func drainBatch(t *testing.T, r Reader, size int) []Ref {
	t.Helper()
	br, ok := r.(BatchReader)
	if !ok {
		t.Fatalf("%T does not implement BatchReader", r)
	}
	buf := make([]Ref, size)
	var out []Ref
	for {
		n, err := br.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
	}
}

func refsEqual(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNextBatchMatchesNext drains every BatchReader implementation both ways
// and asserts identical reference sequences.
func TestNextBatchMatchesNext(t *testing.T) {
	tr := batchTestTrace()
	want := tr.Refs

	makeGen := func() Reader {
		return Generate(2, func(e *Emitter) {
			for _, r := range want {
				e.Emit(r)
			}
		})
	}

	cases := []struct {
		name string
		mk   func() Reader
	}{
		{"slice", func() Reader { return tr.Reader() }},
		{"generator", makeGen},
		{"packed", func() Reader { return mustPack(t, tr).Reader() }},
	}
	for _, tc := range cases {
		for _, size := range []int{1, 7, 512, 8192} {
			got := drainBatch(t, tc.mk(), size)
			if !refsEqual(got, want) {
				t.Fatalf("%s size %d: batch drain diverges (%d refs, want %d)",
					tc.name, size, len(got), len(want))
			}
		}
	}
}

// errCloser wraps a Reader with a Close that fails.
type errCloser struct {
	Reader
	err    error
	closed bool
}

func (e *errCloser) Close() error {
	e.closed = true
	return e.err
}

// readErrReader fails after yielding a few references.
type readErrReader struct {
	left int
	err  error
}

func (r *readErrReader) NumProcs() int { return 1 }

func (r *readErrReader) Next() (Ref, error) {
	if r.left == 0 {
		return Ref{}, r.err
	}
	r.left--
	return L(0, 1), nil
}

// TestDrivepropagatesCloseError: a stream that ends cleanly but whose
// reader fails to close must surface the close error (the old Drive
// silently discarded it).
func TestDrivePropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	r := &errCloser{Reader: New(1, L(0, 1), S(0, 2)).Reader(), err: closeErr}
	var n int
	err := Drive(r, consumerFunc(func(Ref) { n++ }))
	if !errors.Is(err, closeErr) {
		t.Fatalf("Drive = %v, want the close error", err)
	}
	if !r.closed {
		t.Fatal("Drive did not close the reader")
	}
	if n != 2 {
		t.Fatalf("consumer saw %d refs, want 2", n)
	}
}

// TestDriveReadErrorWinsOverCloseError: when the stream itself fails, the
// read error is reported, not the (secondary) close error.
func TestDriveReadErrorWinsOverCloseError(t *testing.T) {
	readErr := errors.New("read failed")
	closeErr := errors.New("close failed")
	r := &errCloser{Reader: &readErrReader{left: 3, err: readErr}, err: closeErr}
	err := Drive(r, consumerFunc(func(Ref) {}))
	if !errors.Is(err, readErr) {
		t.Fatalf("Drive = %v, want the read error", err)
	}
	if !r.closed {
		t.Fatal("Drive did not close the reader after a read error")
	}
}

// TestCollectPropagatesCloseError: Collect and CollectPacked surface close
// errors on otherwise-clean drains.
func TestCollectPropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	if _, err := Collect(&errCloser{Reader: New(1, L(0, 1)).Reader(), err: closeErr}); !errors.Is(err, closeErr) {
		t.Fatalf("Collect = %v, want the close error", err)
	}
	if _, _, err := CollectPacked(context.Background(), &errCloser{Reader: New(1, L(0, 1)).Reader(), err: closeErr}, 10); !errors.Is(err, closeErr) {
		t.Fatalf("CollectPacked = %v, want the close error", err)
	}
}

// TestCollectNExactLengthIsFullDrain: a stream of exactly maxRefs
// references is a complete drain, and a longer one is not.
func TestCollectNExactLengthIsFullDrain(t *testing.T) {
	tr := New(1, L(0, 1), L(0, 2), L(0, 3))
	got, full, err := CollectPacked(context.Background(), tr.Reader(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !full {
		t.Fatal("CollectPacked reported a partial drain for an exact-length stream")
	}
	if got.Len() != 3 {
		t.Fatalf("packed %d refs, want 3", got.Len())
	}
	got, full, err = CollectPacked(context.Background(), tr.Reader(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if full || got != nil {
		t.Fatalf("CollectPacked = (%v, %v) for a capped stream, want (nil, false)", got, full)
	}
}

// consumerFunc adapts a func to Consumer.
type consumerFunc func(Ref)

func (f consumerFunc) Ref(r Ref) { f(r) }

// batchCounting records both delivery paths so the test can assert Drive
// prefers RefBatch.
type batchCounting struct {
	refs    []Ref
	batches int
	perRef  int
}

func (b *batchCounting) Ref(r Ref) {
	b.perRef++
	b.refs = append(b.refs, r)
}

func (b *batchCounting) RefBatch(refs []Ref) {
	b.batches++
	b.refs = append(b.refs, refs...)
}

// TestDriveUsesBatchConsumer: batch-capable consumers get whole batches and
// never the per-ref fallback; legacy consumers still see every reference.
func TestDriveUsesBatchConsumer(t *testing.T) {
	tr := batchTestTrace()
	bc := &batchCounting{}
	var legacy []Ref
	if err := Drive(tr.Reader(), bc, consumerFunc(func(r Ref) { legacy = append(legacy, r) })); err != nil {
		t.Fatal(err)
	}
	if bc.perRef != 0 {
		t.Fatalf("batch consumer got %d per-ref deliveries", bc.perRef)
	}
	if bc.batches == 0 {
		t.Fatal("batch consumer never received a batch")
	}
	if !refsEqual(bc.refs, tr.Refs) || !refsEqual(legacy, tr.Refs) {
		t.Fatal("delivered sequences diverge from the trace")
	}
}
