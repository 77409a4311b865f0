package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SpanRecord is one exported span.
type SpanRecord struct {
	// Op names what the span measured (see Op.String).
	Op string `json:"op"`
	// ID is the process-unique span id.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's id on the same track, 0 at top level.
	Parent uint64 `json:"parent,omitempty"`
	// StartNs/DurNs are relative to the recording epoch.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// Flow is always empty: no recorded op is a flow endpoint. The field
	// stays for readers that still skip flow records.
	Flow string `json:"flow,omitempty"`

	Fields Fields `json:"-"`
}

// TrackSnapshot is one track's retained timeline.
type TrackSnapshot struct {
	// ID is the track's stable index (the exported tid).
	ID int `json:"tid"`
	// Label is the track's name ("main", "sweep-worker 3", ...).
	Label string `json:"track"`
	// Spans are the retained records sorted by start time (parents before
	// children on start-time ties).
	Spans []SpanRecord `json:"spans"`
	// Lost counts records this track lost: ring overwrites plus open-stack
	// overflow drops.
	Lost uint64 `json:"lost,omitempty"`
}

// Snapshot is a stopped recording: the input of both exporters.
type Snapshot struct {
	Tracks []TrackSnapshot
	// Lost is the sum of every track's Lost.
	Lost uint64
}

// snapshot drains the recorder: still-open spans are closed at the stop
// instant, each ring's retained records are copied out oldest-first and
// sorted by start.
func (r *Recorder) snapshot() *Snapshot {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{Tracks: make([]TrackSnapshot, 0, len(r.tracks))}
	for _, t := range r.tracks {
		for len(t.open) > 0 {
			o := t.open[len(t.open)-1]
			t.open = t.open[:len(t.open)-1]
			o.rec.end = now
			t.push(o.rec)
		}
		kept := t.n
		if kept > uint64(len(t.ring)) {
			kept = uint64(len(t.ring))
		}
		lost := t.dropped + (t.n - kept)
		ts := TrackSnapshot{ID: t.id, Label: t.label, Lost: lost,
			Spans: make([]SpanRecord, 0, kept)}
		for i := uint64(0); i < kept; i++ {
			rec := t.ring[(t.n-kept+i)%uint64(len(t.ring))]
			ts.Spans = append(ts.Spans, SpanRecord{
				Op:      rec.op.String(),
				ID:      rec.id,
				Parent:  rec.parent,
				StartNs: rec.start,
				DurNs:   rec.end - rec.start,
				Fields:  rec.fields,
			})
		}
		sort.SliceStable(ts.Spans, func(a, b int) bool {
			x, y := ts.Spans[a], ts.Spans[b]
			if x.StartNs != y.StartNs {
				return x.StartNs < y.StartNs
			}
			if x.DurNs != y.DurNs {
				return x.DurNs > y.DurNs // parents before children
			}
			return x.ID < y.ID
		})
		s.Tracks = append(s.Tracks, ts)
		s.Lost += lost
	}
	return s
}

// args builds the trace_event args / JSONL attribute map for a record;
// nil when the record has no set attributes.
func (sr SpanRecord) args(mask uint8) map[string]any {
	var m map[string]any
	set := func(k string, v any) {
		if m == nil {
			m = make(map[string]any, 4)
		}
		m[k] = v
	}
	f := sr.Fields
	if f.Workload != "" {
		set("workload", f.Workload)
	}
	if f.Scheme != "" {
		set("scheme", f.Scheme)
	}
	if f.Note != "" {
		set("note", f.Note)
	}
	if mask&fBlock != 0 {
		set("block", f.Block)
	}
	if mask&fCell != 0 {
		set("cell", f.Cell)
	}
	if mask&fSegment != 0 {
		set("segment", f.Segment)
	}
	if mask&fLevel != 0 {
		set("level", f.Level)
	}
	if mask&fDepth != 0 {
		set("depth", f.Depth)
	}
	return m
}

// maskOf maps an exported op name back to its field mask.
var maskOf = func() map[string]uint8 {
	m := make(map[string]uint8, int(numOps))
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = opFieldMask[op]
	}
	return m
}()

// traceEvent is one Chrome trace_event JSON object. The format is the
// Trace Event Format's JSON flavor: "X" complete events carry ts+dur and
// "M" metadata events name the threads. Perfetto and chrome://tracing load
// the {"traceEvents": [...]} container directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvent exports the snapshot as Chrome trace_event JSON: one
// named thread per track and one "X" complete event per span. Events are
// globally sorted by timestamp (metadata first), so viewers and the schema
// test see a monotonic stream.
func (s *Snapshot) WriteTraceEvent(w io.Writer) error {
	var meta, events []traceEvent
	for _, ts := range s.Tracks {
		tid := ts.ID
		meta = append(meta,
			traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": ts.Label}},
			traceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"sort_index": tid}},
		)
		for _, sr := range ts.Spans {
			us := float64(sr.StartNs) / 1e3
			dur := float64(sr.DurNs) / 1e3
			events = append(events, traceEvent{
				Name: sr.Op, Cat: "uselessmiss", Ph: "X", Ts: us, Dur: &dur,
				Pid: 1, Tid: tid, Args: sr.args(maskOf[sr.Op]),
			})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(data)
		return err
	}
	for _, ev := range meta {
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// JSONLSchema identifies the JSONL span-log layout.
const JSONLSchema = "uselessmiss/spans/v1"

// jsonlHeader is the first line of a span log.
type jsonlHeader struct {
	Schema string `json:"schema"`
	Tracks int    `json:"tracks"`
	Spans  int    `json:"spans"`
	Lost   uint64 `json:"lost"`
}

// jsonlSpan is one span line: the record plus its track identity and
// flattened attributes.
type jsonlSpan struct {
	Track   string         `json:"track"`
	Tid     int            `json:"tid"`
	Op      string         `json:"op"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL exports the snapshot as a compact JSONL log: a schema header
// line, then one object per span in track order (each track's spans are
// start-sorted). encoding/json sorts map keys, so the bytes are
// deterministic given deterministic timings.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	total := 0
	for _, ts := range s.Tracks {
		total += len(ts.Spans)
	}
	if err := enc.Encode(jsonlHeader{Schema: JSONLSchema, Tracks: len(s.Tracks), Spans: total, Lost: s.Lost}); err != nil {
		return err
	}
	for _, ts := range s.Tracks {
		for _, sr := range ts.Spans {
			line := jsonlSpan{
				Track: ts.Label, Tid: ts.ID, Op: sr.Op, ID: sr.ID,
				Parent:  sr.Parent,
				StartNs: sr.StartNs, DurNs: sr.DurNs,
				Attrs: sr.args(maskOf[sr.Op]),
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Summary renders a one-line digest for logs.
func (s *Snapshot) Summary() string {
	total := 0
	for _, ts := range s.Tracks {
		total += len(ts.Spans)
	}
	return fmt.Sprintf("%d spans on %d tracks (%d lost)", total, len(s.Tracks), s.Lost)
}
