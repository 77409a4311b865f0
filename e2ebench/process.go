package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// heapPeak tracks the highest live heap at the end of any GC cycle while it
// runs: a finalizer on a sentinel object fires once per cycle, reads the
// live heap the cycle marked, and re-arms itself on a fresh sentinel. Live
// heap at cycle end is steadier than peak RSS, which also counts garbage
// not yet collected and memory not yet returned to the OS.
type heapPeak struct {
	stopped atomic.Bool
	mu      sync.Mutex
	peak    uint64
}

// gcSentinel carries a pointer and padding so it is a regular (not tiny)
// allocation that the collector frees, and finalizes, on its own.
type gcSentinel struct {
	_ *int
	_ [32]byte
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if h.stopped.Load() {
			return
		}
		h.sample()
		h.arm()
	})
}

func (h *heapPeak) sample() {
	live := readMetric("/gc/heap/live:bytes")
	h.mu.Lock()
	h.peak = max(h.peak, live)
	h.mu.Unlock()
}

// stop samples the last completed cycle once more and returns the peak in
// bytes.
func (h *heapPeak) stop() uint64 {
	h.sample()
	h.stopped.Store(true)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

func readMetric(name string) uint64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// passCounters are process and program counters read around a pass.
type passCounters struct {
	allocBytes, gcCycles uint64
	// refConfigs sums the consumers' reference counters: every data
	// reference counted once per configuration (block size, scheme or
	// protocol) that replayed it — the pass's input size.
	refConfigs uint64
	driveRefs  uint64
	// peakHeap is set by the caller from heapPeak.
	peakHeap uint64
}

// refCounters are the program counters whose sum is the input size.
var refCounters = []string{
	obs.NameOursRefs, obs.NameEggersRefs, obs.NameTorrellasRefs,
	obs.NameCoherenceRefs, obs.NameFiniteRefs, obs.NameTimingRefs,
}

func readCounters() passCounters {
	rep := obs.Default.Report()
	c := passCounters{
		allocBytes: readMetric("/gc/heap/allocs:bytes"),
		gcCycles:   readMetric("/gc/cycles/total:gc-cycles"),
		driveRefs:  counterOf(rep, obs.NameDriveRefs),
	}
	for _, name := range refCounters {
		c.refConfigs += counterOf(rep, name)
	}
	return c
}

func (c passCounters) sub(before passCounters) passCounters {
	return passCounters{
		allocBytes: c.allocBytes - before.allocBytes,
		gcCycles:   c.gcCycles - before.gcCycles,
		refConfigs: c.refConfigs - before.refConfigs,
		driveRefs:  c.driveRefs - before.driveRefs,
	}
}

// counterOf reads a counter from either section of a report.
func counterOf(rep obs.RunReport, name string) uint64 {
	if v, ok := rep.Deterministic.Counters[name]; ok {
		return v
	}
	return rep.Timings.Counters[name]
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
