// Package obs is the engine's observability layer: a process-wide metrics
// registry of atomic counters, gauges and fixed-bucket histograms, a
// deterministic JSON run report, a throttled live progress renderer, and an
// opt-in HTTP introspection endpoint (expvar + pprof).
//
// The design target is the replay hot path: instrumentation must cost at
// most a few atomic adds per *batch* of references (never per reference)
// and zero allocations in steady state, so the 0-allocs/pass guarantees of
// the dense replay engine survive. Metric handles are resolved once, at
// package init of the instrumented package; the hot path touches only the
// pre-resolved handle.
//
// Metrics are split into two classes at registration time:
//
//   - deterministic: pure work counts (references replayed, batches, cells,
//     cache hits/misses). Their totals depend only on the inputs and flags,
//     never on scheduling, so the deterministic section of a run report is
//     byte-identical across -j settings and can be diffed in CI.
//   - timing: wall-clock durations, rates and concurrency-dependent counts
//     (blocked-send time, singleflight coalescing). They live in the
//     report's "timings" section, which golden comparisons exclude.
package obs

import (
	"math"
	"sync/atomic"
)

// enabled gates every metric mutation. Disabling reduces the hot-path cost
// to one atomic load + branch per operation; the registry keeps its current
// values. It exists so the overhead benchmark can compare the instrumented
// engine against a registry-disabled run in one process.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric collection on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is active.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter discards all operations.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge for rates and instantaneous values
// (refs/s, utilization). Gauges are always reported in the timings section:
// a measured rate is never deterministic. A nil Gauge discards operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram of uint64 observations. Bucket i
// counts observations v <= Bounds[i]; one implicit overflow bucket counts
// the rest. Observe is lock-free: a short linear scan over the bounds plus
// three atomic adds, and never allocates. A nil Histogram discards
// operations.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sum     atomic.Uint64
}

// newHistogram returns a histogram over the given ascending upper bounds.
func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil || !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is the serialized form of a Histogram. Counts has one
// more entry than Bounds: the final overflow bucket.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Quantile estimates the q-quantile of the recorded observations by linear
// interpolation within the containing bucket (the Prometheus convention).
// q is clamped to [0, 1]; an empty snapshot returns 0. A quantile landing
// in the overflow bucket returns the highest finite bound — the histogram
// has no upper edge to interpolate toward — and a histogram with no bounds
// at all can only report 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			if len(s.Bounds) == 0 {
				return 0
			}
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		hi := float64(s.Bounds[i])
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	// Bucket counts summed short of Count (a torn concurrent snapshot):
	// report the highest finite bound rather than inventing a value.
	if len(s.Bounds) == 0 {
		return 0
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Sub returns the bucket-wise difference s - prev, for delta reports.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		c := s.Counts[i]
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		out.Counts[i] = c
	}
	return out
}

// Canonical metric names shared between the instrumented packages, the
// progress renderer and the run timer. Keeping them here (rather than as
// string literals at each site) makes the cross-package wiring greppable.
const (
	// trace.Drive / trace.Collect (package trace).
	NameDriveRefs      = "trace.drive.refs"
	NameDriveBatches   = "trace.drive.batches"
	NameDriveBatchSize = "trace.drive.batch_size"
	NameDriveCloseErrs = "trace.drive.close_errors"
	NameCollectRefs    = "trace.collect.refs"

	// tracestore readahead Reader (package tracestore): segments decoded,
	// per-segment read+decode wall time, and the results-queue occupancy
	// sampled as each segment ships (0 = the replayer is waiting on the
	// decoder; full = the decoder is ahead). All timing-class: the segment
	// count depends on the sweep cache's singleflight coalescing.
	NameStoreSegments  = "tracestore.segments_read"
	NameStoreSegmentNs = "tracestore.segment_read_ns"
	NameStoreOccupancy = "tracestore.readahead.occupancy"

	// sweep.Run and sweep.TraceCache (package sweep).
	NameCellsPlanned   = "sweep.cells.planned"
	NameCellsStarted   = "sweep.cells.started"
	NameCellsFinished  = "sweep.cells.finished"
	NameCellNs         = "sweep.cell_ns"
	NameSweepBusyNs    = "sweep.busy_ns"
	NameCacheHits      = "sweep.cache.hits"
	NameCacheMisses    = "sweep.cache.misses"
	NameCacheStreamed  = "sweep.cache.streamed"
	NameCacheEvictions = "sweep.cache.evictions"
	NameCacheCoalesced = "sweep.cache.coalesced"

	// Classifier and schedule runs (packages core, coherence, finite,
	// timing).
	NameOursRefs      = "core.ours.refs"
	NameEggersRefs    = "core.eggers.refs"
	NameTorrellasRefs = "core.torrellas.refs"
	NameCoherenceRefs = "coherence.refs"
	NameCoherenceMiss = "coherence.misses"
	NameFiniteRefs    = "finite.refs"
	NameTimingRefs    = "timing.refs"

	// Run-level gauges set by RunTimer.
	NameRunWallSeconds = "run.wall_seconds"
	NameRunRefsPerSec  = "run.refs_per_sec"
	NameRunUtilization = "run.utilization"

	// The serving layer (package serve). Admission counters are
	// deterministic in the request stream only, never across concurrent
	// clients, so everything here is timing-class. The queue-depth and
	// in-flight gauges sample the admitted-but-unfinished population;
	// the latency histogram buckets job wall time in nanoseconds.
	NameServeAdmitted     = "serve.jobs.admitted"
	NameServeRejected     = "serve.jobs.rejected"
	NameServeCompleted    = "serve.jobs.completed"
	NameServeFailed       = "serve.jobs.failed"
	NameServePanics       = "serve.jobs.panics"
	NameServeQueueDepth   = "serve.queue.depth"
	NameServeInflight     = "serve.jobs.inflight"
	NameServeJobLatencyNs = "serve.job_latency_ns"
	NameServeDrainForced  = "serve.drain.forced_cancels"
)
