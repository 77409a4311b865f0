package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// runner is one named benchmark workload: a set-up that builds its
// inputs, and a fixed unit of work (a pass) whose every output is checked.
type runner interface {
	// setup builds a fresh copy of the workload's inputs, replacing the
	// previous one; its time is setup_s.
	setup() error
	// pass runs the fixed unit of work once and checks its outputs through
	// b.check. It reports the time that counts as the pass's wall_s.
	pass(b *bench) (passResult, error)
	// probes runs the traced run's layer measurements outside the pass
	// (generation-only and decode-only passes) and records them in m.
	probes(b *bench, m metrics) error
	// close releases what the last setup built.
	close() error
	// tracesProgram reports whether the traced pass may arm the program's
	// span recorder as well as the benchmark's own spans.
	tracesProgram() bool
}

// passResult is what one pass reports besides its checks.
type passResult struct {
	// wall and cpu are the host time and the process CPU time of the
	// pass's fixed work, in seconds.
	wall, cpu float64
	// parts splits wall into the pass's driver calls (one part where the
	// work has no such split); wall_s sums each part's median over the
	// run's passes, so a burst of load from other tenants that slows one
	// call in one pass does not count.
	parts []float64
	// layer holds per-layer metrics the pass measures itself (driver call
	// times, serve latencies); they are reported from an untraced pass.
	layer metrics
}

// setupRounds is how many times each run sets the workload up; setup_s is
// the median.
const setupRounds = 5

// bench carries one invocation's settings, its output checks and, during
// the traced pass, the benchmark's own span recorder.
type bench struct {
	seed    int64
	seconds float64
	out     io.Writer
	errw    io.Writer

	// tr records the benchmark's spans around its calls into the layers;
	// nil outside the traced pass.
	tr *tracer

	attempted, failed int
}

// record counts one operation; a non-nil err counts it failed and is
// reported on stderr.
func (b *bench) record(op string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errw, "e2ebench: %s: %v\n", op, err)
	}
}

// check counts one operation whose output must equal its reference.
func (b *bench) check(op string, got, want []byte) {
	b.record(op, compareOutput(got, want))
}

// setupTimes sets the workload up setupRounds times, leaving the last
// set-up in place, and returns each round's seconds.
func (b *bench) setupTimes(w runner) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		// Each round starts from a collected heap, so the garbage of the
		// round before does not pace this round's collections.
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// measuredPass runs one pass after a forced GC, tracking the peak live heap
// and the process counters around it.
func (b *bench) measuredPass(w runner) (passResult, passCounters, error) {
	runtime.GC()
	before := readCounters()
	peak := startHeapPeak()
	pr, err := w.pass(b)
	pc := readCounters().sub(before)
	pc.peakHeap = peak.stop()
	return pr, pc, err
}

// runUntraced measures the end-to-end metrics: setup_s over setupRounds
// set-ups, then whole passes until the measuring time is used.
func (b *bench) runUntraced(w runner) (*result, error) {
	setups, err := b.setupTimes(w)
	if err != nil {
		return nil, err
	}
	defer w.close() //nolint:errcheck // the run's verdict is already decided

	var walls []float64
	var parts [][]float64 // parts[i]: part i's time in each pass
	var peak uint64
	var last passCounters
	start := time.Now()
	for {
		pr, pc, err := b.measuredPass(w)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "pass: wall %.3fs, cpu %.3fs\n", pr.wall, pr.cpu)
		walls = append(walls, pr.wall)
		for i, t := range pr.parts {
			if i == len(parts) {
				parts = append(parts, nil)
			}
			parts[i] = append(parts[i], t)
		}
		peak = max(peak, pc.peakHeap)
		last = pc
		// Stop once another pass would overshoot the target by more than
		// half a pass.
		elapsed := time.Since(start).Seconds()
		passTime := elapsed / float64(len(walls))
		if elapsed+passTime > b.seconds+passTime/2 {
			break
		}
	}

	var wall float64
	for _, ts := range parts {
		wall += median(ts)
	}
	m := metrics{
		"setup_s":      median(setups),
		"wall_s":       wall,
		"peak_heap_mb": float64(peak) / (1 << 20),
	}
	fmt.Fprintf(b.out, "passes %d, wall_s %s, setup_s %s\n", len(walls), fmtList(walls), fmtList(setups))
	fmt.Fprintf(b.out, "input: %d data refs x configurations per pass (%d refs streamed)\n",
		last.refConfigs, last.driveRefs)
	return b.result(m, e2eCatalogue)
}

// runTraced measures the per-layer metrics: one set-up, an untraced pass
// (the baseline for obs.trace_overhead and the source of the pass's own
// timings), a pass with the program's span recorder and the benchmark's own
// spans armed, then the workload's probes.
func (b *bench) runTraced(w runner) (*result, error) {
	setups, err := b.setupTimes(w)
	if err != nil {
		return nil, err
	}
	defer w.close() //nolint:errcheck // the run's verdict is already decided

	base, _, err := b.measuredPass(w)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	before := obs.Default.Report()
	b.tr = startTracer(w.tracesProgram())
	traced, tpc, err := b.measuredPass(w)
	spans := b.tr.stop()
	b.tr = nil
	if err != nil {
		return nil, err
	}
	delta := obs.Delta(before, obs.Default.Report())

	m := newLayerMetrics()
	for k, v := range base.layer {
		m[k] = v
	}
	at := attribute(spans.nodes)
	m.fromAttribution(at, traced.wall)
	m.fromCounters(delta, tpc)
	m["obs.trace_overhead"] = traced.wall/base.wall - 1
	m["obs.spans_lost"] = float64(spans.lost)
	if err := w.probes(b, m); err != nil {
		return nil, err
	}
	if spans.lost > 0 {
		b.record("traced pass", fmt.Errorf("span recorder lost %d records", spans.lost))
	}
	if b.attempted > 0 {
		m["failed_share"] = float64(b.failed) / float64(b.attempted)
	}

	fmt.Fprintf(b.out, "setup_s %s; untraced pass %.3fs, traced pass %.3fs (overhead %+.1f%%), %s\n",
		fmtList(setups), base.wall, traced.wall, 100*m["obs.trace_overhead"], spans.summary())
	at.print(b.out, traced.wall)
	return b.result(m, layerCatalogue)
}

// result checks m against the catalogue it must fill and wraps it with the
// run's verdict.
func (b *bench) result(m metrics, cat []metricDef) (*result, error) {
	res := &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(cat)),
	}
	for _, d := range cat {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	fmt.Fprintf(b.out, "checked %d operations, %d failed\n", b.attempted, b.failed)
	printMetrics(b.out, res, cat)
	return res, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) write(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printMetrics renders the metrics as an aligned name/value/unit table.
func printMetrics(w io.Writer, r *result, cat []metricDef) {
	for _, d := range cat {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}

// timed runs fn and returns its duration in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
