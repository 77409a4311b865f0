package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// testTrace builds a small deterministic trace: every processor stores to
// its own word and loads a shared one, with the given seed skewing the
// addresses so distinct seeds give distinct sharing patterns.
func testTrace(procs int, seed uint64) *trace.Trace {
	tr := trace.New(procs)
	for round := uint64(0); round < 8; round++ {
		for p := 0; p < procs; p++ {
			own := mem.Addr(uint64(p)*16 + (seed+round)%16)
			tr.Refs = append(tr.Refs,
				trace.S(p, own),
				trace.L(p, mem.Addr(seed%32)),
				trace.L(p, own+1))
		}
	}
	return tr
}

// openerFor wraps traces in an Opener that counts its calls.
func openerFor(traces map[string]*trace.Trace, calls *atomic.Int64) Opener {
	return func(name string) (trace.Reader, error) {
		if calls != nil {
			calls.Add(1)
		}
		tr, ok := traces[name]
		if !ok {
			return nil, fmt.Errorf("no trace %q", name)
		}
		return tr.Reader(), nil
	}
}

func TestTraceCacheMaterializesOnce(t *testing.T) {
	var calls atomic.Int64
	traces := map[string]*trace.Trace{"T": testTrace(4, 1)}
	c := NewTraceCache(0, openerFor(traces, &calls))

	for i := 0; i < 5; i++ {
		r, err := c.Reader("T")
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Refs, traces["T"].Refs) {
			t.Fatalf("reader %d replayed different refs", i)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("opener called %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 4 || s.Streamed != 0 {
		t.Errorf("stats = %+v, want 1 miss, 4 hits, 0 streamed", s)
	}
	if s.CachedRefs != int64(traces["T"].Len()) {
		t.Errorf("CachedRefs = %d, want %d", s.CachedRefs, traces["T"].Len())
	}
}

func TestTraceCacheSingleflight(t *testing.T) {
	var calls atomic.Int64
	traces := map[string]*trace.Trace{"T": testTrace(8, 2)}
	c := NewTraceCache(0, openerFor(traces, &calls))

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Reader("T")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := trace.Collect(r); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("opener called %d times under concurrency, want 1", n)
	}
}

func TestTraceCacheOverBudgetStreams(t *testing.T) {
	var calls atomic.Int64
	tr := testTrace(4, 3)
	c := NewTraceCache(int64(tr.Len())-1, openerFor(map[string]*trace.Trace{"T": tr}, &calls))

	for i := 0; i < 3; i++ {
		r, err := c.Reader("T")
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("streamed reader %d saw %d refs, want %d", i, got.Len(), tr.Len())
		}
	}
	s := c.Stats()
	if s.Streamed != 3 || s.CachedRefs != 0 {
		t.Errorf("stats = %+v, want 3 streamed and nothing cached", s)
	}
	// Materialization attempt + one fresh stream per caller.
	if n := calls.Load(); n != 4 {
		t.Errorf("opener called %d times, want 4", n)
	}
}

func TestTraceCacheBudgetSharedAcrossNames(t *testing.T) {
	a, b := testTrace(4, 4), testTrace(4, 5)
	c := NewTraceCache(int64(a.Len()), openerFor(map[string]*trace.Trace{"A": a, "B": b}, nil))
	if _, err := c.Reader("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reader("B"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.CachedRefs != int64(a.Len()) {
		t.Errorf("CachedRefs = %d, want only A's %d", s.CachedRefs, a.Len())
	}
	if s.Streamed != 1 {
		t.Errorf("Streamed = %d, want 1 (B over budget)", s.Streamed)
	}
}

// TestTraceCacheBudgetHoldsUnderConcurrency: two names whose drains run
// side by side both read the whole remaining budget when they start, but
// only the one that still fits when it finishes is admitted.
func TestTraceCacheBudgetHoldsUnderConcurrency(t *testing.T) {
	traces := map[string]*trace.Trace{"A": testTrace(4, 8), "B": testTrace(4, 9)}
	n := int64(traces["A"].Len())
	budget := n + n/2
	// The first two opens are the two materializations: each blocks until
	// both have started, so neither has finished when the other reads the
	// remaining budget.
	var started sync.WaitGroup
	started.Add(2)
	var opens atomic.Int64
	inner := openerFor(traces, nil)
	c := NewTraceCache(budget, func(name string) (trace.Reader, error) {
		if opens.Add(1) <= 2 {
			started.Done()
			started.Wait()
		}
		return inner(name)
	})

	srcs := make(map[string]func() (trace.Reader, error))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := c.Source(name)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			srcs[name] = src
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := c.Stats()
	if s.CachedRefs > budget {
		t.Errorf("CachedRefs = %d over the %d-ref budget", s.CachedRefs, budget)
	}
	if s.Misses != 2 || s.Streamed != 1 || s.CachedRefs != n {
		t.Errorf("stats = %+v, want 2 misses, 1 streamed, %d refs cached", s, n)
	}
	for name, src := range srcs {
		r, err := src()
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Refs, traces[name].Refs) {
			t.Errorf("%s replayed different refs", name)
		}
	}
}

// TestTraceCacheWideAddressStreams: a trace with an address one past the
// packed word's limit is streamed like an over-budget one, and every
// reader still replays it exactly.
func TestTraceCacheWideAddressStreams(t *testing.T) {
	var calls atomic.Int64
	tr := testTrace(4, 10)
	tr.Refs[len(tr.Refs)/2].Addr = trace.MaxPackedAddr + 1
	c := NewTraceCache(0, openerFor(map[string]*trace.Trace{"T": tr}, &calls))

	src, err := c.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var r trace.Reader
		if i%2 == 0 {
			r, err = src()
		} else {
			r, err = c.Reader("T")
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Refs, tr.Refs) {
			t.Fatalf("reader %d replayed different refs", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 || s.Streamed != 3 || s.CachedRefs != 0 {
		t.Errorf("stats = %+v, want 1 miss, 3 streamed, nothing cached", s)
	}
	// One abandoned materialization + four fresh streams.
	if n := calls.Load(); n != 5 {
		t.Errorf("opener called %d times, want 5", n)
	}
}

func TestTraceCacheOpenerError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	c := NewTraceCache(0, func(name string) (trace.Reader, error) {
		calls.Add(1)
		return nil, boom
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Reader("X"); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	// The failure is memoized like a result: no retry storm.
	if n := calls.Load(); n != 1 {
		t.Errorf("opener called %d times, want 1", n)
	}
}

// TestTraceCacheSourceCountsOnce: a Source call resolves the trace and
// counts exactly one cache event, however many readers its factory opens —
// the contract that makes the cache metrics count resolutions, not replays.
func TestTraceCacheSourceCountsOnce(t *testing.T) {
	var calls atomic.Int64
	tr := testTrace(4, 6)
	c := NewTraceCache(0, openerFor(map[string]*trace.Trace{"T": tr}, &calls))

	// Miss + 8 factory readers: one opener call, one miss, no hits.
	src, err := c.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r, err := src()
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Refs, tr.Refs) {
			t.Fatalf("factory reader %d replayed different refs", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 || s.Streamed != 0 {
		t.Errorf("after miss-source: stats = %+v, want 1 miss only", c.Stats())
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("opener called %d times, want 1", n)
	}

	// Hit + 8 factory readers: one hit, still one opener call.
	src, err = c.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := src(); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("after hit-source: stats = %+v, want 1 miss, 1 hit", s)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("opener called %d times after hit source, want 1", n)
	}
}

// TestTraceCacheSourceOverBudget: an over-budget Source counts one streamed
// fallback and its factory opens fresh generations without further events.
func TestTraceCacheSourceOverBudget(t *testing.T) {
	var calls atomic.Int64
	tr := testTrace(4, 7)
	c := NewTraceCache(int64(tr.Len())-1, openerFor(map[string]*trace.Trace{"T": tr}, &calls))

	src, err := c.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r, err := src()
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("factory stream %d saw %d refs, want %d", i, got.Len(), tr.Len())
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Streamed != 1 || s.CachedRefs != 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 streamed, nothing cached", s)
	}
	// One abandoned materialization + four factory streams.
	if n := calls.Load(); n != 5 {
		t.Errorf("opener called %d times, want 5", n)
	}

	// A second Source over the settled entry counts one more streamed event.
	if _, err := c.Source("T"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Streamed != 2 {
		t.Errorf("Streamed = %d after second source, want 2", s.Streamed)
	}
}

// TestCacheInvarianceProperty is the cache's core contract as a property:
// classifying a trace through the cache — whatever the budget, and whether
// the reader is the materializing call, a cache hit, or a stream fallback —
// yields exactly the counts of classifying the raw trace.
func TestCacheInvarianceProperty(t *testing.T) {
	g := mem.MustGeometry(16)
	property := func(procsRaw, seedRaw uint8, budgetRaw int16) bool {
		procs := int(procsRaw%7) + 2
		tr := testTrace(procs, uint64(seedRaw))
		wantCounts, wantRefs, err := core.Classify(tr.Reader(), g)
		if err != nil {
			return false
		}
		budget := int64(budgetRaw) // negative → default, small → stream path
		c := NewTraceCache(budget, openerFor(map[string]*trace.Trace{"T": tr}, nil))
		for i := 0; i < 3; i++ {
			r, err := c.Reader("T")
			if err != nil {
				return false
			}
			counts, refs, err := core.Classify(r, g)
			if err != nil || counts != wantCounts || refs != wantRefs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
