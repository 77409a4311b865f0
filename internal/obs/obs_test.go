package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("c"); c2 != c {
		t.Error("Counter is not get-or-create")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("h", []uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if want := []uint64{2, 1, 1}; len(s.Counts) != 3 || s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Errorf("histogram counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 4 || s.Sum != 1022 {
		t.Errorf("histogram count/sum = %d/%d, want 4/1022", s.Count, s.Sum)
	}
}

// TestNilHandlesAreNoOps: a nil metric handle must discard operations, so
// optional instrumentation can hold nil without branching at every site.
func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter not zero")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge not zero")
	}
	var h *Histogram
	h.Observe(1)
}

// TestHotPathAllocs pins the instrumentation primitives to zero
// allocations: the replay loop's per-batch adds must not touch the heap.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []uint64{1, 8, 64, 512, 1024})
	got := testing.AllocsPerRun(100, func() {
		c.Add(1024)
		g.Set(1.0)
		h.Observe(512)
	})
	if got != 0 {
		t.Fatalf("hot-path metric ops allocate %.1f per pass, want 0", got)
	}
}

// TestConcurrentAdds exercises the atomics under the race detector.
func TestConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.TimingHistogram("h", []uint64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(uint64(i % 20))
				_ = r.Counter("c") // registry lookups race with snapshots
				_ = r.Report()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if got := h.snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestReportSectionsAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("det.c").Add(5)
	r.TimingCounter("tim.c").Add(7)
	r.Gauge("g").Set(1.5)
	r.Histogram("det.h", []uint64{10}).Observe(3)
	r.TimingHistogram("tim.h", []uint64{10}).Observe(3)

	before := r.Report()
	if before.Deterministic.Counters["det.c"] != 5 {
		t.Error("deterministic counter missing")
	}
	if _, ok := before.Deterministic.Counters["tim.c"]; ok {
		t.Error("timing counter leaked into deterministic section")
	}
	if before.Timings.Counters["tim.c"] != 7 {
		t.Error("timing counter missing")
	}
	if _, ok := before.Timings.Histograms["tim.h"]; !ok {
		t.Error("timing histogram missing")
	}

	r.Counter("det.c").Add(2)
	r.Counter("new.c").Add(4)
	r.Histogram("det.h", nil).Observe(100)
	r.Gauge("g").Set(9)
	d := Delta(before, r.Report())
	if d.Deterministic.Counters["det.c"] != 2 {
		t.Errorf("delta det.c = %d, want 2", d.Deterministic.Counters["det.c"])
	}
	if d.Deterministic.Counters["new.c"] != 4 {
		t.Errorf("delta new.c = %d, want 4", d.Deterministic.Counters["new.c"])
	}
	if d.Timings.Gauges["g"] != 9 {
		t.Errorf("delta gauge = %v, want latest value 9", d.Timings.Gauges["g"])
	}
	hs := d.Deterministic.Histograms["det.h"]
	if hs.Count != 1 || hs.Sum != 100 {
		t.Errorf("delta histogram = %+v, want count 1 sum 100", hs)
	}
}

// TestHistogramQuantile pins the interpolation convention on a known
// distribution and every edge: empty snapshot, q clamped past [0, 1],
// exact bucket boundaries, and a mass that lands in the overflow bucket.
func TestHistogramQuantile(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", got)
	}

	// 10 observations spread 4/4/2 over buckets (0,10], (10,100], overflow.
	h := newHistogram([]uint64{10, 100})
	for _, v := range []uint64{1, 2, 3, 4, 20, 40, 60, 80, 500, 900} {
		h.Observe(v)
	}
	s := h.snapshot()
	cases := []struct {
		q    float64
		want float64
	}{
		{-1, 0},    // clamped to 0: lower edge of the first occupied bucket
		{0, 0},     // lower edge of the first occupied bucket
		{0.2, 5},   // rank 2 of 4 inside (0,10]
		{0.4, 10},  // rank 4 == the full first bucket: its upper bound
		{0.6, 55},  // rank 6: halfway through (10,100]
		{0.8, 100}, // rank 8 == through the second bucket: its upper bound
		{0.9, 100}, // overflow bucket: highest finite bound
		{1, 100},   // ditto
		{2, 100},   // clamped to 1
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// A histogram with no finite bounds has only the overflow bucket and
	// can never report a value.
	h2 := newHistogram(nil)
	h2.Observe(7)
	if got := h2.snapshot().Quantile(0.5); got != 0 {
		t.Errorf("boundless histogram quantile = %v, want 0", got)
	}

	// Empty buckets between occupied ones are skipped, not interpolated
	// into.
	h3 := newHistogram([]uint64{1, 2, 3})
	h3.Observe(1)
	h3.Observe(3)
	if got := h3.snapshot().Quantile(1); got != 3 {
		t.Errorf("sparse histogram Quantile(1) = %v, want 3", got)
	}
}

// TestHistogramSnapshotDeltaConcurrent drives writers and a delta-taking
// reader concurrently (meaningful under -race) and checks the telescoping
// invariant: the per-interval deltas must sum to the final snapshot exactly,
// no observation dropped or double-counted across snapshot boundaries.
func TestHistogramSnapshotDeltaConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []uint64{8, 64, 512})
	const writers, perWriter = 8, 5000

	prev := h.snapshot() // before any writer starts, so the deltas telescope to the final state

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe((seed + uint64(i)) % 1000)
			}
		}(uint64(w * 131))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Accumulate interval deltas while the writers run; each delta also
	// has to be internally sane (no negative-wrapped uint64 counts).
	total := HistogramSnapshot{}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur := h.snapshot()
		d := cur.Sub(prev)
		prev = cur
		const wrapped = 1 << 63
		if d.Count > wrapped || d.Sum > wrapped {
			t.Fatalf("delta wrapped negative: %+v", d)
		}
		total.Count += d.Count
		total.Sum += d.Sum
		if total.Counts == nil {
			total.Counts = make([]uint64, len(d.Counts))
		}
		for i, c := range d.Counts {
			if c > wrapped {
				t.Fatalf("bucket %d delta wrapped negative", i)
			}
			total.Counts[i] += c
		}
		_ = d.Quantile(0.5) // reads torn snapshots without panicking
	}

	final := h.snapshot()
	if total.Count != final.Count || total.Sum != final.Sum {
		t.Fatalf("deltas do not telescope: summed count/sum %d/%d, final %d/%d",
			total.Count, total.Sum, final.Count, final.Sum)
	}
	for i := range final.Counts {
		if total.Counts[i] != final.Counts[i] {
			t.Fatalf("bucket %d: summed %d, final %d", i, total.Counts[i], final.Counts[i])
		}
	}
	if final.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", final.Count, writers*perWriter)
	}
	var bucketSum uint64
	for _, c := range final.Counts {
		bucketSum += c
	}
	if bucketSum != final.Count {
		t.Fatalf("quiescent buckets sum to %d, count says %d", bucketSum, final.Count)
	}
}

// TestSnapshotDeltasTelescope drives the registry from four concurrent
// writers while a reader takes successive reports, then checks the
// invariant run-report deltas rest on: the deltas between successive
// reports, summed, equal the registry's total change — no observation is
// double-counted or dropped between reports, in either section.
func TestSnapshotDeltasTelescope(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("snap.test.refs")
	tc := reg.TimingCounter("snap.test.blocked_ns")
	h := reg.Histogram("snap.test.batch", []uint64{10, 100})
	base := reg.Report()

	const workers = 4
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(3)
				tc.Inc()
				h.Observe(uint64(i % 150))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The last report is taken after the writers finish, so the deltas
	// cover the whole run.
	var sumRefs, sumBlocked, sumHistCnt, sumHistSum uint64
	last := base
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur := reg.Report()
		d := Delta(last, cur)
		last = cur
		sumRefs += d.Deterministic.Counters["snap.test.refs"]
		sumBlocked += d.Timings.Counters["snap.test.blocked_ns"]
		hd := d.Deterministic.Histograms["snap.test.batch"]
		sumHistCnt += hd.Count
		sumHistSum += hd.Sum
	}

	if want := uint64(workers * iters * 3); sumRefs != want {
		t.Errorf("telescoped refs = %d, want %d", sumRefs, want)
	}
	if want := uint64(workers * iters); sumBlocked != want {
		t.Errorf("telescoped blocked = %d, want %d", sumBlocked, want)
	}
	fh := Delta(base, reg.Report()).Deterministic.Histograms["snap.test.batch"]
	if sumHistCnt != fh.Count || sumHistSum != fh.Sum {
		t.Errorf("telescoped histogram count/sum = %d/%d, want %d/%d",
			sumHistCnt, sumHistSum, fh.Count, fh.Sum)
	}
}

// TestReportJSONDeterministic: identical registry state must serialize to
// identical bytes (sorted keys), and the schema tag must be present.
func TestReportJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("h", []uint64{1, 2}).Observe(1)
	var buf1, buf2 bytes.Buffer
	if err := r.Report().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Report().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("report serialization is not deterministic")
	}
	if !strings.Contains(buf1.String(), ReportSchema) {
		t.Error("schema tag missing")
	}
	var parsed RunReport
	if err := json.Unmarshal(buf1.Bytes(), &parsed); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if parsed.Deterministic.Counters["a"] != 1 || parsed.Deterministic.Counters["b"] != 2 {
		t.Errorf("round-trip lost counters: %+v", parsed.Deterministic.Counters)
	}
	if got := parsed.DeterministicNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("DeterministicNames = %v", got)
	}
}
