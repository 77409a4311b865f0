package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/span"
)

// ringRecords is the per-track ring capacity of the traced pass. The CLI's
// default (span.DefaultRingSize) overflows on a regen -quick; this holds a
// whole pass, and obs.spans_lost proves it.
const ringRecords = 1 << 18

// ownIDBase keeps the benchmark's span ids apart from the recorder's.
const ownIDBase = 1 << 62

// node is one span of the traced pass: one the program recorded, or one the
// benchmark recorded around a call into a layer.
type node struct {
	id, parent uint64
	track      string
	op         string
	// layer is the module an own span's self time belongs to.
	layer string
	// drives names the layer of the replays an own span's call runs (the
	// driver's simulator family), inherited by cell.replay and
	// trace.drive spans below it.
	drives     string
	start, end int64
	own        bool
	main       bool // recorded on the program's main track
	wait       bool // queue wait, not work: never a child, never self time
}

func (n *node) dur() int64 { return n.end - n.start }

// tracer records the benchmark's own spans during the traced pass, on the
// clock of the program's recorder, which it arms.
type tracer struct {
	recordProgram bool
	seq           atomic.Uint64
	mu            sync.Mutex
	own           []node
	epoch         int64 // clock origin when the program recorder is off
}

// startTracer arms the benchmark's span log and, when recordProgram is
// set, the program's own span recorder.
func startTracer(recordProgram bool) *tracer {
	t := &tracer{recordProgram: recordProgram}
	if recordProgram {
		span.StartRecording(ringRecords)
	} else {
		t.epoch = monoNow()
	}
	return t
}

// processStart is the origin of monoNow.
var processStart = time.Now()

// monoNow is a monotonic nanosecond clock for spans recorded while the
// program's recorder is off.
func monoNow() int64 { return int64(time.Since(processStart)) }

func (t *tracer) now() int64 {
	if t.recordProgram {
		return span.Now()
	}
	return monoNow() - t.epoch
}

// ownSpan is an open span of the benchmark's own; nil when not tracing.
type ownSpan struct {
	t *tracer
	n node
}

// start opens an own span on track, below parent (nil for a top-level
// span). Safe on a nil tracer, which returns a nil span.
func (t *tracer) start(track, op, layer, drives string, parent *ownSpan) *ownSpan {
	if t == nil {
		return nil
	}
	s := &ownSpan{t: t, n: node{
		id: ownIDBase + t.seq.Add(1), track: "bench/" + track, op: op,
		layer: layer, drives: drives, start: t.now(), own: true,
	}}
	if parent != nil {
		s.n.parent = parent.n.id
	}
	return s
}

// end closes the span. Safe on nil.
func (s *ownSpan) end() {
	if s == nil {
		return
	}
	s.n.end = s.t.now()
	s.t.mu.Lock()
	s.t.own = append(s.t.own, s.n)
	s.t.mu.Unlock()
}

// recording is a stopped traced pass.
type recording struct {
	nodes []node
	lost  uint64
	// programSpans counts the spans the program recorded.
	programSpans int
}

// stop disarms the recorder and returns every span of the pass.
func (t *tracer) stop() *recording {
	rec := &recording{}
	if t.recordProgram {
		snap := span.StopRecording()
		rec.lost = snap.Lost
		for _, ts := range snap.Tracks {
			track := fmt.Sprintf("%d:%s", ts.ID, ts.Label)
			for _, sr := range ts.Spans {
				if sr.Flow != "" {
					continue
				}
				rec.nodes = append(rec.nodes, node{
					id: sr.ID, parent: sr.Parent, track: track, op: sr.Op,
					start: sr.StartNs, end: sr.StartNs + sr.DurNs,
					main: ts.Label == "main", wait: sr.Op == "sweep.cell_wait",
				})
				rec.programSpans++
			}
		}
	}
	t.mu.Lock()
	rec.nodes = append(rec.nodes, t.own...)
	t.mu.Unlock()
	return rec
}

func (r *recording) summary() string {
	return fmt.Sprintf("%d spans (%d from the program, %d lost)", len(r.nodes), r.programSpans, r.lost)
}

// attribution is the traced pass's time by layer and by span op.
type attribution struct {
	// self is each layer's self time in seconds: the layer's spans'
	// durations minus the union of their child spans.
	self map[string]float64
	// opSelf and opDur are self time and total duration by span op.
	opSelf, opDur map[string]float64
	// ops counts spans by op.
	ops map[string]int
}

func (a *attribution) total() float64 {
	var t float64
	for _, v := range a.self {
		t += v
	}
	return t
}

// attribute links the spans into one tree and sums self time by layer.
//
// A program span keeps the parent the recorder gave it on its own track. A
// program span with no parent there, such as a sweep cell on a worker's
// track or a segment read on the readahead track, is a child of the
// innermost span that contains it in time among the benchmark's own spans
// and the program's main-track spans: the call that caused it. Queue waits
// (sweep.cell_wait) are reported by duration but take no part in the tree.
func attribute(nodes []node) *attribution {
	byID := make(map[uint64]*node, len(nodes))
	var anchors []*node
	for i := range nodes {
		n := &nodes[i]
		if n.wait {
			continue
		}
		byID[n.id] = n
		if n.own || n.main {
			anchors = append(anchors, n)
		}
	}
	for i := range nodes {
		n := &nodes[i]
		if n.wait || n.own {
			continue
		}
		if _, ok := byID[n.parent]; ok && n.parent != 0 {
			continue
		}
		n.parent = 0
		var best *node
		for _, a := range anchors {
			if a == n || (n.main && a.main) || a.start > n.start || a.end < n.end {
				continue
			}
			if best == nil || innermost(a, best) {
				best = a
			}
		}
		if best != nil {
			n.parent = best.id
		}
	}

	children := make(map[uint64][]*node, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		if !n.wait && n.parent != 0 {
			children[n.parent] = append(children[n.parent], n)
		}
	}
	drives := make(map[uint64]string, len(nodes))
	var drivesOf func(n *node) string
	drivesOf = func(n *node) string {
		if n.drives != "" {
			return n.drives
		}
		if d, ok := drives[n.id]; ok {
			return d
		}
		d := "trace"
		if p, ok := byID[n.parent]; ok {
			d = drivesOf(p)
		}
		drives[n.id] = d
		return d
	}

	at := &attribution{
		self:   make(map[string]float64),
		opSelf: make(map[string]float64),
		opDur:  make(map[string]float64),
		ops:    make(map[string]int),
	}
	for i := range nodes {
		n := &nodes[i]
		dur := float64(n.dur()) / 1e9
		at.opDur[n.op] += dur
		at.ops[n.op]++
		if n.wait {
			continue
		}
		self := float64(selfTime(n, children[n.id])) / 1e9
		at.opSelf[n.op] += self
		layer := n.layer
		if !n.own {
			layer = programLayer(n.op)
			if layer == "" {
				layer = drivesOf(n)
			}
		}
		at.self[layer] += self
	}
	return at
}

// innermost reports whether anchor a sits inside anchor b: it started
// later, or at the same time and ended sooner, or it is the program's span
// inside the benchmark's own call around it.
func innermost(a, b *node) bool {
	if a.start != b.start {
		return a.start > b.start
	}
	if a.end != b.end {
		return a.end < b.end
	}
	return a.main && b.own
}

// programLayer maps a program span op to its module; "" means the span's
// layer is that of the replay it belongs to (cell.replay, trace.drive).
func programLayer(op string) string {
	switch op {
	case "experiment":
		return "experiment"
	case "sweep.cell":
		return "sweep"
	case "fused.resolve", "fused.level_sweep":
		return "core"
	case "tracestore.segment_io", "trace.pack":
		return "tracestore"
	case "demux.pump":
		return "trace"
	}
	return ""
}

// selfTime is the span's duration minus the part of its interval that the
// union of its children covers (children may overlap each other, run on
// other tracks, and stick out of the parent).
func selfTime(n *node, children []*node) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, n.start), min(c.end, n.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return n.dur() - covered
}

// print renders the layer table: self time and share per layer, with the
// traced pass's wall time and total busy (thread) time.
func (a *attribution) print(w io.Writer, wall float64) {
	total := a.total()
	fmt.Fprintf(w, "layer self time of the traced pass (wall %.3fs, %.3f thread-seconds in spans):\n", wall, total)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = a.self[l] / total
		}
		fmt.Fprintf(w, "  %-14s %9.3fs %6.1f%%\n", l, a.self[l], 100*share)
	}
	ops := make([]string, 0, len(a.ops))
	for op := range a.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintln(w, "spans by op (count, total, self):")
	for _, op := range ops {
		fmt.Fprintf(w, "  %-24s %7d %9.3fs %9.3fs\n", op, a.ops[op], a.opDur[op], a.opSelf[op])
	}
}
