package trace

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs/span"
)

// Reader is a pull-based stream of trace references. Next returns io.EOF
// when the stream ends. Readers that hold resources also implement io.Closer;
// use CloseReader to release them.
type Reader interface {
	// NumProcs returns the number of processors in the trace. All Proc
	// fields are smaller than this.
	NumProcs() int
	// Next returns the next reference, or io.EOF at end of stream.
	Next() (Ref, error)
}

// CloseReader closes r if it implements io.Closer.
func CloseReader(r Reader) error {
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// BatchReader is a Reader that can deliver references many at a time,
// amortizing the per-reference interface dispatch of Next over whole
// batches. The in-memory trace reader, the workload generators, the binary
// decoder and the packed-trace reader all implement it; Drive uses it when
// available.
type BatchReader interface {
	Reader
	// NextBatch fills buf with the next references of the stream and
	// returns how many were written (at most len(buf), possibly fewer).
	// The filled prefix is valid even when err != nil: a reader may
	// return its last references together with io.EOF or a decode error.
	// End of stream is n == 0 with io.EOF.
	NextBatch(buf []Ref) (n int, err error)
}

// driveBatch is the reference-batch size used by Drive and Collect.
// Large enough to amortize dispatch, small enough that a batch of 16-byte
// refs stays well inside the L1 cache.
const driveBatch = 1024

// fill reads up to len(buf) references from r into buf using plain Next
// calls; it is the BatchReader fallback for legacy readers. Like NextBatch,
// the filled prefix is valid even when err != nil.
func fill(r Reader, buf []Ref) (int, error) {
	for n := 0; n < len(buf); n++ {
		ref, err := r.Next()
		if err != nil {
			return n, err
		}
		buf[n] = ref
	}
	return len(buf), nil
}

// Trace is an in-memory trace.
type Trace struct {
	Procs int
	Refs  []Ref
}

// New returns an empty in-memory trace for the given processor count.
func New(procs int, refs ...Ref) *Trace {
	return &Trace{Procs: procs, Refs: refs}
}

// Append adds references to the trace.
func (t *Trace) Append(refs ...Ref) { t.Refs = append(t.Refs, refs...) }

// Len returns the number of references.
func (t *Trace) Len() int { return len(t.Refs) }

// DataRefs returns the number of data (load/store) references: the
// denominator of every miss rate in the paper.
func (t *Trace) DataRefs() uint64 {
	var n uint64
	for _, r := range t.Refs {
		if r.Kind.IsData() {
			n++
		}
	}
	return n
}

// Reader returns a Reader over the trace. Multiple concurrent readers over
// the same trace are independent.
func (t *Trace) Reader() Reader {
	return &sliceReader{procs: t.Procs, refs: t.Refs}
}

// Validate checks that every reference has a valid kind and an in-range
// processor id.
func (t *Trace) Validate() error {
	if t.Procs <= 0 {
		return fmt.Errorf("trace: non-positive processor count %d", t.Procs)
	}
	for i, r := range t.Refs {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace: ref %d: invalid kind %d", i, r.Kind)
		}
		if r.Kind != Phase && int(r.Proc) >= t.Procs {
			return fmt.Errorf("trace: ref %d: proc %d out of range [0,%d)", i, r.Proc, t.Procs)
		}
	}
	return nil
}

type sliceReader struct {
	procs int
	refs  []Ref
	pos   int
}

func (r *sliceReader) NumProcs() int { return r.procs }

func (r *sliceReader) Next() (Ref, error) {
	if r.pos >= len(r.refs) {
		return Ref{}, io.EOF
	}
	ref := r.refs[r.pos]
	r.pos++
	return ref, nil
}

// NextBatch implements BatchReader by copying straight out of the backing
// slice.
func (r *sliceReader) NextBatch(buf []Ref) (int, error) {
	n := copy(buf, r.refs[r.pos:])
	r.pos += n
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Collect drains a Reader into an in-memory Trace and closes it, reporting
// the close error if the drain itself succeeded.
func Collect(r Reader) (*Trace, error) {
	return CollectContext(context.Background(), r)
}

// CollectContext is Collect with a cancellation context, checked once per
// batch: a canceled drain closes the reader and returns ctx.Err().
func CollectContext(ctx context.Context, r Reader) (*Trace, error) {
	t := New(r.NumProcs())
	if _, err := drainBatches(ctx, r, func(refs []Ref) bool {
		t.Refs = append(t.Refs, refs...)
		return true
	}); err != nil {
		return nil, err
	}
	mCollectRefs.Add(uint64(len(t.Refs)))
	return t, nil
}

// drainBatches is the batched read loop behind the collectors: it hands r's
// references to keep a batch at a time until the stream ends or keep
// returns false, then closes r, reporting the close error if the drain
// itself succeeded. all reports whether the whole stream was read.
// Cancellation is observed at batch granularity so the steady-state drain
// stays allocation-free.
func drainBatches(ctx context.Context, r Reader, keep func([]Ref) bool) (all bool, err error) {
	defer func() {
		if cerr := CloseReader(r); cerr != nil {
			mDriveCloseErrs.Inc()
			if err == nil {
				// Wrap with the consumer context so callers can both
				// errors.Is the underlying failure and see whose close it
				// was.
				err = fmt.Errorf("trace: collect: closing reader: %w", cerr)
			}
		}
	}()
	br, batched := r.(BatchReader)
	buf := make([]Ref, driveBatch)
	for {
		if e := ctx.Err(); e != nil {
			return false, e
		}
		var n int
		var e error
		if batched {
			n, e = br.NextBatch(buf)
		} else {
			n, e = fill(r, buf)
		}
		if !keep(buf[:n]) {
			return false, nil
		}
		if e == io.EOF {
			return true, nil
		}
		if e != nil {
			return false, e
		}
	}
}

// Consumer receives each reference of a trace in order. Implemented by the
// classifiers, the protocol simulators and the statistics collector.
type Consumer interface {
	Ref(Ref)
}

// BatchConsumer is a Consumer that accepts references a batch at a time.
// RefBatch(refs) must be equivalent to calling Ref for each reference in
// order; it exists so the replay loop pays one interface dispatch per batch
// instead of one per reference. All the classifiers and protocol simulators
// implement it.
type BatchConsumer interface {
	Consumer
	RefBatch(refs []Ref)
}

// Drive feeds every reference from r to each consumer, in a single pass,
// then closes r, reporting the reader's close error when the stream itself
// ended cleanly. It allows one (possibly expensive to regenerate) stream to
// feed several simulators at once.
//
// Each consumer sees the full reference sequence in stream order. Delivery
// is batched: consumers implementing BatchConsumer receive whole batches,
// and a consumer receives batch k entirely before the next consumer does —
// consumers are independent state machines, so relative interleaving
// between consumers does not affect any result.
func Drive(r Reader, consumers ...Consumer) error {
	return DriveContext(context.Background(), r, consumers...)
}

// DriveContext is Drive with a cancellation context. Cancellation is
// observed once per batch — the per-reference hot loop stays untouched and
// the steady state stays allocation-free (pinned by TestDriveContextAllocs)
// — so a canceled replay stops within one batch of references, closes the
// reader, and returns ctx.Err().
func DriveContext(ctx context.Context, r Reader, consumers ...Consumer) (err error) {
	defer func() {
		if cerr := CloseReader(r); cerr != nil {
			mDriveCloseErrs.Inc()
			if err == nil {
				// Wrap with the consumer context (errors.Is still reaches
				// the underlying error through %w).
				err = fmt.Errorf("trace: drive: closing reader: %w", cerr)
			}
		}
	}()
	// When a span track rides on the context (installed by the sweep worker
	// that owns this drive), record the whole drive as one span and hand
	// the track to consumers that want to emit their own sub-spans (the
	// fused classifiers). Disabled tracing takes the nil-track path: one
	// atomic load, no allocation.
	if tr := span.FromContext(ctx); tr != nil {
		defer tr.Begin(span.OpDrive, span.Fields{}).End()
		for _, c := range consumers {
			if ts, ok := c.(span.TrackSetter); ok {
				ts.SetSpanTrack(tr)
			}
		}
	}
	br, batched := r.(BatchReader)
	buf := make([]Ref, driveBatch)
	// Resolve each consumer's delivery mode once, outside the hot loop.
	batchers := make([]BatchConsumer, len(consumers))
	for i, c := range consumers {
		if bc, ok := c.(BatchConsumer); ok {
			batchers[i] = bc
		}
	}
	for {
		if e := ctx.Err(); e != nil {
			return e
		}
		var n int
		var e error
		if batched {
			n, e = br.NextBatch(buf)
		} else {
			n, e = fill(r, buf)
		}
		if n > 0 {
			// The whole per-batch instrumentation cost: three pre-resolved
			// atomic adds per 1024 references.
			mDriveRefs.Add(uint64(n))
			mDriveBatches.Inc()
			mDriveBatchSize.Observe(uint64(n))
			batch := buf[:n]
			for i, c := range consumers {
				if bc := batchers[i]; bc != nil {
					bc.RefBatch(batch)
					continue
				}
				for _, ref := range batch {
					c.Ref(ref)
				}
			}
		}
		if e == io.EOF {
			return nil
		}
		if e != nil {
			return e
		}
	}
}

// ErrStopped is returned by readers whose generator was closed early.
var ErrStopped = errors.New("trace: generator stopped")
