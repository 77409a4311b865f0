package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Cache metric handles. Misses count one materialization attempt per
// distinct name, and every other resolution is either a hit (the trace is
// cached) or a streamed fallback. Which traces are cached depends only on
// the names and the budget, except when concurrent drains compete for the
// last of the budget: then completion order decides which trace is kept,
// and so whether later readers count as hits or as streamed. No output
// depends on it. Coalesced is a timing metric — how many of the hits
// arrived while the materialization was still in flight depends on worker
// interleaving. The cache admits whole traces within a fixed budget and
// never evicts: over-budget traces are streamed instead.
var (
	mCacheHits      = obs.Default.Counter(obs.NameCacheHits)
	mCacheMisses    = obs.Default.Counter(obs.NameCacheMisses)
	mCacheStreamed  = obs.Default.Counter(obs.NameCacheStreamed)
	mCacheCoalesced = obs.Default.TimingCounter(obs.NameCacheCoalesced)
)

// DefaultCacheRefs is the default TraceCache budget: the total number of
// references the cache may hold in memory across all workloads. At 8
// bytes per reference (trace.Packed) the default is ~64 MB — enough for
// every small data-set trace at once, while the
// tens-of-millions-of-references large traces (LU200, WATER288, ...) keep
// streaming exactly like the serial path always did.
const DefaultCacheRefs = 8 << 20

// Opener produces a fresh streaming reader for a named trace. It must
// return an equivalent stream every time it is called with the same name
// (the workload generators are deterministic, so the registry satisfies
// this).
type Opener func(name string) (trace.Reader, error)

// TraceCache memoizes materialized traces by name so a workload is
// generated once per run instead of once per sweep cell. It is safe for
// concurrent use: the first Reader call for a name materializes the trace
// (concurrent callers for the same name wait rather than generating
// duplicates), and every later call replays the in-memory copy. Traces
// that would exceed the remaining budget, or that hold an address above
// trace.MaxPackedAddr, are not cached; callers for those names fall back to
// a fresh stream from the Opener each time.
type TraceCache struct {
	open   Opener
	budget int64

	mu      sync.Mutex
	used    int64
	entries map[string]*cacheEntry

	hits, misses, streamed atomic.Int64
}

type cacheEntry struct {
	ready chan struct{} // closed once materialization settled
	tr    *trace.Packed // nil: stream-only (over budget, unpackable or failed)
	err   error         // opener error, reported to every waiter
}

// NewTraceCache returns a cache over open holding at most budgetRefs
// references in memory; budgetRefs <= 0 selects DefaultCacheRefs.
func NewTraceCache(budgetRefs int64, open Opener) *TraceCache {
	if budgetRefs <= 0 {
		budgetRefs = DefaultCacheRefs
	}
	return &TraceCache{
		open:    open,
		budget:  budgetRefs,
		entries: make(map[string]*cacheEntry),
	}
}

// Reader returns a reader over the named trace: a replay of the cached
// in-memory copy when the trace fits the budget, otherwise a fresh stream
// from the Opener. Readers are independent and safe to drain concurrently.
func (c *TraceCache) Reader(name string) (trace.Reader, error) {
	return c.ReaderContext(context.Background(), name)
}

// ReaderContext is Reader with a cancellation context: a canceled caller
// stops waiting on an in-flight materialization, and a materialization
// aborted by cancellation does not poison the entry — the next caller
// (e.g. a later run over the same cache) retries it.
func (c *TraceCache) ReaderContext(ctx context.Context, name string) (trace.Reader, error) {
	src, err := c.SourceContext(ctx, name)
	if err != nil {
		return nil, err
	}
	return src()
}

// Source returns a factory of independent, equivalent readers over the
// named trace; see SourceContext.
func (c *TraceCache) Source(name string) (func() (trace.Reader, error), error) {
	return c.SourceContext(context.Background(), name)
}

// SourceContext resolves the named trace once — materializing it on first
// use exactly like ReaderContext — and returns a factory that opens
// independent readers over the resolved source: replays of the in-memory
// copy when the trace fits the budget, fresh streams from the Opener
// otherwise. The cache counts one event (hit, miss, or streamed) per
// SourceContext call no matter how many readers the factory opens, so the
// cache metrics count resolutions, not replays.
func (c *TraceCache) SourceContext(ctx context.Context, name string) (func() (trace.Reader, error), error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if ok {
		c.mu.Unlock()
		select {
		case <-e.ready:
		default:
			// The materialization is still in flight: this reader's load
			// is being coalesced onto it (the singleflight path).
			mCacheCoalesced.Inc()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			return nil, e.err
		}
		if e.tr == nil {
			c.streamed.Add(1)
			mCacheStreamed.Inc()
			return func() (trace.Reader, error) { return c.open(name) }, nil
		}
		c.hits.Add(1)
		mCacheHits.Inc()
		tr := e.tr
		return func() (trace.Reader, error) { return tr.Reader(), nil }, nil
	}

	e = &cacheEntry{ready: make(chan struct{})}
	c.entries[name] = e
	remaining := c.budget - c.used
	c.mu.Unlock()

	c.misses.Add(1)
	mCacheMisses.Inc()
	tr, complete, err := c.materialize(ctx, name, remaining)
	switch {
	case err != nil:
		e.err = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The cancellation is this run's, not the trace's: drop the
			// entry so a later run retries instead of inheriting the error.
			c.mu.Lock()
			delete(c.entries, name)
			c.mu.Unlock()
		}
	case complete:
		// Admit the trace only if it still fits: a concurrent drain may
		// have taken part of the budget since remaining was read.
		c.mu.Lock()
		if n := int64(tr.Len()); c.used+n <= c.budget {
			c.used += n
			e.tr = tr
		}
		c.mu.Unlock()
	}
	close(e.ready)
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		// Not cached: the materialization was abandoned or no longer fit,
		// so this caller streams fresh generations like every later one.
		// The fallback counts once here; the factory's streams do not
		// count again.
		c.streamed.Add(1)
		mCacheStreamed.Inc()
		return func() (trace.Reader, error) { return c.open(name) }, nil
	}
	cached := e.tr
	return func() (trace.Reader, error) { return cached.Reader(), nil }, nil
}

// materialize packs up to maxRefs references of a fresh stream into
// memory.
func (c *TraceCache) materialize(ctx context.Context, name string, maxRefs int64) (*trace.Packed, bool, error) {
	if maxRefs <= 0 {
		return nil, false, nil
	}
	r, err := c.open(name)
	if err != nil {
		return nil, false, err
	}
	return trace.CollectPacked(ctx, r, maxRefs)
}

// CacheStats reports cache effectiveness for logs and tests.
type CacheStats struct {
	// Hits counts readers served from a cached trace.
	Hits int64
	// Misses counts materialization attempts (one per distinct name).
	Misses int64
	// Streamed counts readers that fell back to a fresh generation
	// because the trace was not cached (it did not fit the budget, or held
	// an address above trace.MaxPackedAddr).
	Streamed int64
	// CachedRefs is the number of references currently held in memory.
	CachedRefs int64
}

// Stats returns a snapshot of the cache counters.
func (c *TraceCache) Stats() CacheStats {
	c.mu.Lock()
	used := c.used
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Streamed:   c.streamed.Load(),
		CachedRefs: used,
	}
}
