// Package fault injects controlled failures into trace streams. Each
// injector wraps a trace.Reader and misbehaves in one specific, fully
// deterministic way — erroring after a fixed number of references,
// corrupting reference fields, stalling mid-stream, or failing Close — so
// the robustness suite can assert how every layer above the reader (the
// replay pumps, the block-sharded consumers, the sweep engine, the
// experiment drivers) reacts: typed errors propagate via errors.Is/As, no path
// deadlocks or leaks goroutines, and partial output is never presented as
// complete.
package fault

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// ErrInjected is the sentinel every injected failure wraps. Tests match it
// with errors.Is after an error has crossed the shard, sweep and driver
// layers.
var ErrInjected = errors.New("fault: injected failure")

// Error is the typed error surfaced by the injectors. It wraps ErrInjected
// (and any caller-supplied cause), so both errors.Is(err, ErrInjected) and
// errors.As(err, **Error) survive fmt.Errorf("%w") wrapping on the way up.
type Error struct {
	// Op names the injector that fired: "read", "close" or "stall".
	Op string
	// After is how many references the stream delivered before the fault.
	After uint64
	// Err is the underlying cause; it wraps ErrInjected.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure after %d refs: %v", e.Op, e.After, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// newError builds the injector error for op, folding the optional cause in
// under ErrInjected.
func newError(op string, after uint64, cause error) *Error {
	err := ErrInjected
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrInjected, cause)
	}
	return &Error{Op: op, After: after, Err: err}
}

// base carries the shared wrapper state: the wrapped reader and the count
// of references delivered so far. The injectors implement only Next (not
// NextBatch) on purpose: the replay pumps must behave identically whether a
// reader batches or not, and per-reference delivery gives the injectors
// exact trigger points.
type base struct {
	r trace.Reader
	n uint64
}

func (b *base) NumProcs() int { return b.r.NumProcs() }

func (b *base) Close() error { return trace.CloseReader(b.r) }

// ErrorAfter returns a reader that delivers n references from r and then
// fails every subsequent Next with a typed *Error wrapping ErrInjected (and
// cause, if non-nil). The stream never reaches EOF.
func ErrorAfter(r trace.Reader, n uint64, cause error) trace.Reader {
	return &errorAfter{base: base{r: r}, after: n, cause: cause}
}

type errorAfter struct {
	base
	after uint64
	cause error
}

func (e *errorAfter) Next() (trace.Ref, error) {
	if e.n >= e.after {
		return trace.Ref{}, newError("read", e.n, e.cause)
	}
	ref, err := e.r.Next()
	if err != nil {
		return ref, err
	}
	e.n++
	return ref, nil
}

// CorruptAddrs returns a reader that flips an address bit in every
// reference after the first n, simulating in-memory corruption of decoded
// trace data. The corruption is silent — addresses stay valid, processors
// stay in range — so downstream consumers keep running and produce wrong
// counts; the differential suite uses it to prove corruption changes
// results rather than crashing, while the codec's CRC framing is what
// rejects corrupt bytes before they get this far.
func CorruptAddrs(r trace.Reader, n uint64) trace.Reader {
	return &corruptAddrs{base: base{r: r}, after: n}
}

type corruptAddrs struct {
	base
	after uint64
}

func (c *corruptAddrs) Next() (trace.Ref, error) {
	ref, err := c.r.Next()
	if err != nil {
		return ref, err
	}
	if c.n >= c.after && ref.Kind.IsData() {
		ref.Addr ^= 1 << 20
	}
	c.n++
	return ref, nil
}

// ScrambleProcs returns a reader that sets the processor id out of range on
// every data reference after the first n. Consumers index per-processor
// state by Proc, so a scrambled reference panics them — the injector that
// exercises the sweep engine's panic isolation (recover into CellError).
func ScrambleProcs(r trace.Reader, n uint64) trace.Reader {
	return &scrambleProcs{base: base{r: r}, after: n}
}

type scrambleProcs struct {
	base
	after uint64
}

func (s *scrambleProcs) Next() (trace.Ref, error) {
	ref, err := s.r.Next()
	if err != nil {
		return ref, err
	}
	if s.n >= s.after && ref.Kind.IsData() {
		ref.Proc = uint16(s.r.NumProcs())
	}
	s.n++
	return ref, nil
}

// Stall returns a reader that sleeps d before delivering every every-th
// reference, simulating a slow or wedged trace source. The stream is
// otherwise unmodified; the cancellation suite uses it to prove a stalled
// replay still drains promptly after ctx cancellation instead of hanging.
func Stall(r trace.Reader, every uint64, d time.Duration) trace.Reader {
	if every == 0 {
		every = 1
	}
	return &stall{base: base{r: r}, every: every, d: d}
}

type stall struct {
	base
	every uint64
	d     time.Duration
}

func (s *stall) Next() (trace.Ref, error) {
	if s.n%s.every == 0 {
		time.Sleep(s.d)
	}
	ref, err := s.r.Next()
	if err != nil {
		return ref, err
	}
	s.n++
	return ref, nil
}

// StallAt returns a reader that sleeps d exactly once, just before
// delivering reference n — a single mid-stream latency spike, as opposed
// to Stall's periodic slowdown. The stream is otherwise unmodified; the
// serving layer's drain and deadline tests use it to park a job at a known
// point and prove cancellation still wins.
func StallAt(r trace.Reader, n uint64, d time.Duration) trace.Reader {
	return &stallAt{base: base{r: r}, at: n, d: d}
}

type stallAt struct {
	base
	at    uint64
	d     time.Duration
	fired bool
}

func (s *stallAt) Next() (trace.Ref, error) {
	if !s.fired && s.n >= s.at {
		s.fired = true
		time.Sleep(s.d)
	}
	ref, err := s.r.Next()
	if err != nil {
		return ref, err
	}
	s.n++
	return ref, nil
}

// FlakyClose returns a reader that streams r faithfully but fails Close
// with a typed *Error (wrapping ErrInjected and cause, if non-nil). The
// replay pumps promise to surface close errors when the stream itself ended
// cleanly; this injector pins that promise.
func FlakyClose(r trace.Reader, cause error) trace.Reader {
	return &flakyClose{base: base{r: r}, cause: cause}
}

type flakyClose struct {
	base
	cause error
}

func (f *flakyClose) Next() (trace.Ref, error) {
	ref, err := f.r.Next()
	if err != nil {
		return ref, err
	}
	f.n++
	return ref, nil
}

func (f *flakyClose) Close() error {
	trace.CloseReader(f.r) //nolint:errcheck // the injected error wins
	return newError("close", f.n, f.cause)
}

// interfaces the injectors must keep satisfying.
var (
	_ trace.Reader = (*errorAfter)(nil)
	_ io.Closer    = (*errorAfter)(nil)
	_ trace.Reader = (*corruptAddrs)(nil)
	_ trace.Reader = (*scrambleProcs)(nil)
	_ trace.Reader = (*stall)(nil)
	_ trace.Reader = (*stallAt)(nil)
	_ trace.Reader = (*flakyClose)(nil)
	_ io.Closer    = (*flakyClose)(nil)
)
