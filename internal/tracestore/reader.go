package tracestore

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/obs/span"
	"repro/internal/trace"
)

// defaultReadahead is how many decoded segments the reader keeps in flight
// beyond the one being replayed: 1 gives the classic double buffer —
// segment N+1 decodes on the worker while segment N replays.
const defaultReadahead = 1

// segResult is one decoded segment (or the error that ended decoding)
// handed from the worker to NextBatch.
type segResult struct {
	refs []trace.Ref
	err  error
}

// Reader replays a packed trace as a trace.BatchReader with resident
// memory bounded by O(segment × (readahead+2)): a decode worker reads and
// decodes segments in order into a fixed pool of recycled buffers while
// NextBatch drains the current one. It implements io.Closer; Close stops
// the worker, waits for it to exit (no leaked decoders on an early
// close), and propagates the file close error when the Reader owns the
// file.
type Reader struct {
	f        *File
	ownsFile bool

	stop    chan struct{}
	free    chan []trace.Ref
	results chan segResult
	wg      sync.WaitGroup

	cur    []trace.Ref // unread tail of the current decoded segment
	curBuf []trace.Ref // its backing buffer, returned to free when drained
	err    error       // sticky NextBatch error (includes io.EOF)

	closeOnce sync.Once
	closeErr  error
}

// Reader returns a BatchReader over the whole file with default readahead.
func (f *File) Reader() *Reader {
	return f.ReaderContext(context.Background())
}

// ReaderContext is Reader with a cancellation context: a canceled context
// stops the decode worker and surfaces ctx.Err() from NextBatch within one
// segment.
func (f *File) ReaderContext(ctx context.Context) *Reader {
	bufs := defaultReadahead + 1
	r := &Reader{
		f:    f,
		stop: make(chan struct{}),
		free: make(chan []trace.Ref, bufs),
		// One slot per buffer plus one for a buffer-less error result, so
		// worker sends can never block and Close never deadlocks.
		results: make(chan segResult, bufs+1),
	}
	for i := 0; i < bufs; i++ {
		r.free <- nil
	}
	r.wg.Add(1)
	go r.run(ctx)
	return r
}

// OpenReader opens path and returns a Reader over the whole file that owns
// the OS file: its Close closes the file and reports that error.
func OpenReader(path string) (*Reader, error) {
	return OpenReaderContext(context.Background(), path)
}

// OpenReaderContext is OpenReader under a cancellation context.
func OpenReaderContext(ctx context.Context, path string) (*Reader, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	r := f.ReaderContext(ctx)
	r.ownsFile = true
	return r, nil
}

// run is the decode worker: it recycles buffers from free, decodes the
// next segment into one, and ships it to NextBatch. Every
// blocking point also watches stop and ctx so an early Close or a
// canceled context terminates the goroutine promptly.
func (r *Reader) run(ctx context.Context) {
	defer r.wg.Done()
	defer close(r.results)
	// The worker is its own goroutine, so it owns its own span track
	// (tracks are single-writer; sharing the replayer's would race). Each
	// segment's pread+decode+CRC becomes one tracestore.segment_io span
	// whose depth attribute samples the results-queue occupancy at ship
	// time — the live readahead margin.
	tr := span.Acquire("tracestore-readahead")
	defer span.Release(tr)
	cur := r.f.Cursor()
	for i := range r.f.toc {
		var buf []trace.Ref
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		case <-ctx.Done():
			r.results <- segResult{err: ctx.Err()}
			return
		}
		if err := ctx.Err(); err != nil {
			r.results <- segResult{err: err}
			return
		}
		var sp span.Span
		if tr != nil {
			sp = tr.Begin(span.OpSegmentIO, span.Fields{Segment: int32(i), Depth: int32(len(r.results))})
		}
		t0 := time.Now()
		refs, err := cur.Read(i, buf)
		mStoreSegmentNs.Add(uint64(time.Since(t0)))
		mStoreSegments.Inc()
		mStoreOccupancy.Observe(uint64(len(r.results)))
		sp.End()
		if err != nil {
			r.results <- segResult{err: err}
			return
		}
		select {
		case r.results <- segResult{refs: refs}:
		case <-r.stop:
			return
		}
	}
}

// NumProcs implements trace.Reader.
func (r *Reader) NumProcs() int { return r.f.procs }

// Next implements trace.Reader one reference at a time; replay loops use
// NextBatch.
func (r *Reader) Next() (trace.Ref, error) {
	var one [1]trace.Ref
	n, err := r.NextBatch(one[:])
	if n == 1 {
		return one[0], err
	}
	return trace.Ref{}, err
}

// NextBatch implements trace.BatchReader: it copies from the current
// decoded segment, fetching the next one from the worker when the current
// drains. Errors (including io.EOF at end of file) are sticky.
func (r *Reader) NextBatch(buf []trace.Ref) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for {
		if len(r.cur) > 0 {
			n := copy(buf, r.cur)
			r.cur = r.cur[n:]
			if len(r.cur) == 0 {
				// Hand the drained buffer back for the worker to refill.
				// Capacity math guarantees room: there are exactly as many
				// buffers as free slots.
				r.free <- r.curBuf[:0]
				r.cur, r.curBuf = nil, nil
			}
			return n, nil
		}
		res, ok := <-r.results
		if !ok {
			r.err = io.EOF
			return 0, io.EOF
		}
		if res.err != nil {
			r.err = res.err
			return 0, r.err
		}
		r.cur, r.curBuf = res.refs, res.refs
	}
}

// Close stops the decode worker, waits for it to exit, and — when the
// Reader owns the file (OpenReader) — closes the file and returns its
// error. Safe to call at any point of the replay, any number of times.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.wg.Wait()
		if r.ownsFile {
			r.closeErr = r.f.Close()
		}
	})
	return r.closeErr
}
