package trace

// Cancellation tests for the replay pump: the allocation pin promised by
// DriveContext's doc comment, and a pre-canceled collect. The
// cancel-mid-replay race suite over packed-trace readers lives in
// teardown_test.go.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mem"
)

// nopBatchConsumer is the cheapest possible BatchConsumer: the allocation
// pin must measure the pump, not the consumer.
type nopBatchConsumer struct{ refs uint64 }

func (c *nopBatchConsumer) Ref(Ref)             { c.refs++ }
func (c *nopBatchConsumer) RefBatch(refs []Ref) { c.refs += uint64(len(refs)) }

// cancelTestTrace builds a deterministic mixed trace of n references.
func cancelTestTrace(n int) *Trace {
	const procs = 4
	tr := New(procs)
	for i := 0; tr.Len() < n; i++ {
		p := i % procs
		addr := mem.Addr(4 * (i % 1024))
		tr.Append(L(p, addr), S(p, addr))
		if i%256 == 255 {
			tr.Append(A(p, 1<<30), R(p, 1<<30))
		}
	}
	return tr
}

// TestDriveContextAllocs pins the zero-alloc steady state the DriveContext
// doc comment promises: the per-batch ctx.Err() check adds no allocations
// to the replay loop, so the per-call allocation count is a small constant
// independent of trace length (only the batch buffer and the batcher table
// are allocated, once per call).
func TestDriveContextAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &nopBatchConsumer{}
	perCall := func(tr *Trace) float64 {
		t.Helper()
		return testing.AllocsPerRun(10, func() {
			if err := DriveContext(ctx, tr.Reader(), c); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := perCall(cancelTestTrace(4 << 10))
	large := perCall(cancelTestTrace(64 << 10))
	if small != large {
		t.Errorf("allocations grow with trace length: %v for 4k refs, %v for 64k refs",
			small, large)
	}
	// The fixed per-call cost: reader, batch buffer, batcher table.
	if large > 8 {
		t.Errorf("DriveContext allocates %v per call, want <= 8", large)
	}
}

// TestCollectContextCanceled: a pre-canceled collect returns ctx.Err() and
// still closes the reader.
func TestCollectContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &closeTrackingReader{r: cancelTestTrace(1 << 10).Reader()}
	if _, err := CollectContext(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !src.closed {
		t.Error("reader not closed after canceled collect")
	}
}

// closeTrackingReader records whether Close was called.
type closeTrackingReader struct {
	r      Reader
	closed bool
}

func (c *closeTrackingReader) NumProcs() int      { return c.r.NumProcs() }
func (c *closeTrackingReader) Next() (Ref, error) { return c.r.Next() }
func (c *closeTrackingReader) Close() error {
	c.closed = true
	return CloseReader(c.r)
}
