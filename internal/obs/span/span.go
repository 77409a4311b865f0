// Package span is the execution flight recorder behind the CLI's
// -trace-out and -span-log flags: a low-overhead span recorder whose
// timeline can be exported as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing) or as a compact JSONL event log.
//
// The design mirrors the obs metrics layer's hot-path contract, but for
// timelines instead of totals:
//
//   - Recording is gated by one atomic pointer load. With no recorder
//     active every entry point returns a nil *Track or zero Span, and the
//     nil receivers make every method a no-op — zero allocations, a couple
//     of nanoseconds per call site (pinned by the obs/span-disabled
//     perfbench workload and TestDisabledZeroAlloc).
//   - A Track is a single-writer timeline: exactly one goroutine writes to
//     a track at a time, so recording a completed span is a plain (not
//     atomic) ring-buffer store — no locks, no CAS, no contention. Worker
//     goroutines Acquire a track at start and Release it on exit; released
//     tracks are recycled by label, so a sweep pool's N workers reuse N
//     tracks across any number of runs.
//   - Spans are recorded at batch/cell/segment granularity, never per
//     reference, matching the engine's instrumentation budget.
//   - Each track's ring buffer holds a fixed number of completed span
//     records and overwrites the oldest on overflow (newest-wins: the tail
//     of a long run is the part worth looking at). Open spans live on a
//     small bounded stack per track — only completed records enter the
//     ring — so parent/child linkage survives any overflow. Lost records
//     (ring overwrites plus open-stack overflow drops) are counted and
//     reported in the snapshot.
//
// Typed attributes (workload, scheme, block size, cell, segment, level,
// queue depth) ride in a fixed-size Fields struct, so recording
// never formats strings on the hot path.
package span

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies what a span measures. The set is closed on purpose: a
// fixed enum keeps span records fixed-size and exporters exhaustive.
type Op uint8

const (
	opNone Op = iota
	// OpExperiment is one experiment driver call (fig5, table1, ...).
	OpExperiment
	// OpArtifact is one regen artifact render.
	OpArtifact
	// OpPack is one workload's trace packing (regen -trace-out).
	OpPack
	// OpCellWait is a sweep cell's queue wait: submit to start.
	OpCellWait
	// OpCell is a sweep cell's execution on a pool worker.
	OpCell
	// OpReplay is one cell's trace replay with its grid coordinates.
	OpReplay
	// OpDrive is one trace.Drive pass (a full stream replay).
	OpDrive
	// OpResolve is a fused classifier's batch resolve phase.
	OpResolve
	// OpLevelSweep is a fused classifier's per-level batch sweep.
	OpLevelSweep
	// OpSegmentIO is one tracestore segment read+decode+CRC on the
	// readahead worker.
	OpSegmentIO
	numOps
)

// opNames are the exported event names, stable across exporters.
var opNames = [numOps]string{
	opNone:       "none",
	OpExperiment: "experiment",
	OpArtifact:   "regen.artifact",
	OpPack:       "trace.pack",
	OpCellWait:   "sweep.cell_wait",
	OpCell:       "sweep.cell",
	OpReplay:     "cell.replay",
	OpDrive:      "trace.drive",
	OpResolve:    "fused.resolve",
	OpLevelSweep: "fused.level_sweep",
	OpSegmentIO:  "tracestore.segment_io",
}

// String returns the op's exported event name.
func (o Op) String() string {
	if o >= numOps {
		return "invalid"
	}
	return opNames[o]
}

// Fields are a span's typed attributes. Unused fields stay at their zero
// value and are omitted by the exporters; the numeric fields use -1-free
// zero-as-absent semantics except where an op's mask (see fieldMask) says
// the zero is meaningful (cell 0, segment 0, ...).
type Fields struct {
	// Workload names the benchmark trace being replayed.
	Workload string
	// Scheme names the classification scheme or protocol.
	Scheme string
	// Note is a free-form label (experiment name, artifact file).
	Note string
	// Block is the cache-block size in bytes.
	Block int32
	// Cell is the sweep-grid cell index.
	Cell int32
	// Segment is the tracestore segment index.
	Segment int32
	// Level is the fused classifier's internal level index.
	Level int32
	// Depth is a queue occupancy sampled at span start (the tracestore
	// readahead results queue).
	Depth int32
}

// Integer-field presence masks per op: ops declare which int32 fields are
// meaningful so exporters can emit cell=0 or segment=0 without emitting
// five zero attributes on every span.
const (
	fBlock = 1 << iota
	fCell
	fSegment
	fLevel
	fDepth
)

var opFieldMask = [numOps]uint8{
	OpCellWait:   fCell,
	OpCell:       fCell,
	OpReplay:     fBlock | fCell,
	OpLevelSweep: fBlock | fLevel,
	OpSegmentIO:  fSegment | fDepth,
}

// record is one completed span in a track's ring: fixed size, written by
// the track's single owner goroutine.
type record struct {
	start  int64 // ns since the recorder's epoch
	end    int64
	id     uint64 // span id
	parent uint64 // enclosing span's id, 0 at top level
	fields Fields
	op     Op
}

// DefaultRingSize is the per-track completed-record capacity used when
// StartRecording is given a non-positive size (16384 records ≈ 1.8 MB per
// track; newest-wins on overflow).
const DefaultRingSize = 1 << 14

// maxOpenDepth bounds each track's open-span stack. Nesting in the engine
// is shallow (experiment → cell → replay → drive → resolve/level is 5-6);
// deeper Begins are dropped and counted rather than growing the stack.
const maxOpenDepth = 64

type openSpan struct {
	rec record // start/id/parent/fields/op filled; end set when popped
}

// Track is a single-writer span timeline. Exactly one goroutine may call
// its methods at a time (the Acquire/Release discipline, or the context
// plumbing which hands a track to the one goroutine driving a replay).
// All methods are safe on a nil receiver, which is the disabled path.
type Track struct {
	rec   *Recorder
	label string
	id    int

	ring []record
	n    uint64 // records ever written; ring index is n % len(ring)

	open    []openSpan // bounded stack of open spans
	dropped uint64     // Begins dropped to open-stack overflow
}

// Span is a handle on an open span; End closes it. The zero Span is a
// no-op, which is what every Begin returns when recording is off.
type Span struct {
	t     *Track
	depth int32 // 1-based position on the open stack; 0 = inert
}

// Recorder owns the epoch, the track set and the id sequences for one
// recording session.
type Recorder struct {
	epoch   time.Time
	ringLen int

	spanSeq atomic.Uint64

	mu     sync.Mutex
	tracks []*Track            // every track ever created, in creation order
	free   map[string][]*Track // released tracks by label, for reuse
	main   *Track
}

// active is the process-wide recording gate: nil means disabled, and
// every entry point loads it exactly once.
var active atomic.Pointer[Recorder]

// StartRecording installs a fresh recorder as the process-wide active one
// and returns it. ringSize is the per-track completed-record capacity;
// non-positive means DefaultRingSize. Recording sessions do not nest: a
// second StartRecording orphans the first recorder (tracks already handed
// out keep writing into the orphan, harmlessly).
func StartRecording(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &Recorder{
		epoch:   time.Now(),
		ringLen: ringSize,
		free:    make(map[string][]*Track),
	}
	r.main = r.newTrack("main")
	active.Store(r)
	return r
}

// StopRecording deactivates the recorder and returns its snapshot:
// every track's retained records (still-open spans are closed at the
// stop instant), sorted by start time. Returns nil if recording was off.
//
// Callers must stop or join the goroutines writing spans before calling
// StopRecording — the CLI does: every pipeline goroutine is joined before
// the export runs, and Release's lock hand-off makes a released track's
// writes visible here.
func StopRecording() *Snapshot {
	r := active.Swap(nil)
	if r == nil {
		return nil
	}
	return r.snapshot()
}

// Enabled reports whether a recorder is active.
func Enabled() bool { return active.Load() != nil }

// Now returns the current timestamp in ns since the active recorder's
// epoch, or 0 when recording is off. Capture it before a wait you want to
// attribute later with Track.Emit.
func Now() int64 {
	r := active.Load()
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newTrack creates a track (caller holds mu or has exclusive access).
func (r *Recorder) newTrack(label string) *Track {
	t := &Track{
		rec:   r,
		label: label,
		id:    len(r.tracks),
		ring:  make([]record, r.ringLen),
		open:  make([]openSpan, 0, maxOpenDepth),
	}
	r.tracks = append(r.tracks, t)
	return t
}

// Acquire returns a track for the calling goroutine, reusing a released
// track with the same label when one is free. Returns nil (a valid no-op
// track) when recording is off. The caller must Release it when done.
func Acquire(label string) *Track {
	r := active.Load()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if list := r.free[label]; len(list) > 0 {
		t := list[len(list)-1]
		r.free[label] = list[:len(list)-1]
		return t
	}
	return r.newTrack(label)
}

// Acquiref is Acquire with a "prefix i" label, checking the gate before
// formatting so the disabled path never touches strconv.
func Acquiref(prefix string, i int) *Track {
	if active.Load() == nil {
		return nil
	}
	return Acquire(prefix + " " + strconv.Itoa(i))
}

// Release returns an Acquired track to its recorder's freelist. The lock
// hand-off also publishes the releasing goroutine's ring writes to the
// goroutine that later calls StopRecording. Safe on nil.
func Release(t *Track) {
	if t == nil {
		return
	}
	r := t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free[t.label] = append(r.free[t.label], t)
}

// Main returns the recorder's main track (the CLI goroutine's timeline),
// or nil when recording is off.
func Main() *Track {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.main
}

// Root begins a span on the main track: the entry point for experiment
// drivers running on the calling goroutine.
func Root(op Op, f Fields) Span { return Main().Begin(op, f) }

// Begin opens a span on the track and returns its handle. Nil-safe.
func (t *Track) Begin(op Op, f Fields) Span {
	if t == nil {
		return Span{}
	}
	if len(t.open) >= maxOpenDepth {
		t.dropped++
		return Span{}
	}
	var parent uint64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].rec.id
	}
	t.open = append(t.open, openSpan{rec: record{
		start:  t.rec.now(),
		id:     t.rec.spanSeq.Add(1),
		parent: parent,
		fields: f,
		op:     op,
	}})
	return Span{t: t, depth: int32(len(t.open))}
}

// End closes the span (and any children left open below it, so an early
// return inside a nested phase cannot corrupt the stack). Safe on the
// zero Span and on double End.
func (s Span) End() {
	t := s.t
	if t == nil || s.depth == 0 {
		return
	}
	now := t.rec.now()
	for int32(len(t.open)) >= s.depth {
		o := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		o.rec.end = now
		t.push(o.rec)
	}
}

// Emit records an already-elapsed span in one call: start was captured
// earlier (span.Now at submit time), the end is now. It is how queue
// waits are recorded — the waiting goroutine did not exist yet at start.
func (t *Track) Emit(op Op, f Fields, startNs int64) {
	if t == nil {
		return
	}
	var parent uint64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].rec.id
	}
	now := t.rec.now()
	if startNs <= 0 || startNs > now {
		startNs = now
	}
	t.push(record{
		start:  startNs,
		end:    now,
		id:     t.rec.spanSeq.Add(1),
		parent: parent,
		fields: f,
		op:     op,
	})
}

// push stores a completed record, overwriting the oldest on overflow.
func (t *Track) push(rec record) {
	t.ring[t.n%uint64(len(t.ring))] = rec
	t.n++
}

// trackKey is the context key for the goroutine's current track.
type trackKey struct{}

// NewContext returns ctx carrying t, so replay layers below a worker can
// record onto the worker's track without new plumbing. A nil t returns
// ctx unchanged.
func NewContext(ctx context.Context, t *Track) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, trackKey{}, t)
}

// FromContext returns the track carried by ctx, or nil. The single-writer
// rule transfers with the context: only the goroutine currently driving
// the work the context scopes may record on the track.
func FromContext(ctx context.Context) *Track {
	if !Enabled() {
		return nil
	}
	t, _ := ctx.Value(trackKey{}).(*Track)
	return t
}

// Start begins a span on the context's track (no-op without one).
func Start(ctx context.Context, op Op, f Fields) Span {
	return FromContext(ctx).Begin(op, f)
}

// TrackSetter is implemented by consumers that can record spans onto the
// driving goroutine's track (the fused classifiers); trace.DriveContext
// injects its track into every consumer that implements it.
type TrackSetter interface {
	SetSpanTrack(*Track)
}
