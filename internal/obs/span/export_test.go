package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// buildSnapshot records a small three-track session with nesting and
// returns its snapshot.
func buildSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	startForTest(t, 0)
	root := Root(OpExperiment, Fields{Note: "fig5"})
	cell := Acquire("sweep-worker 0")
	csp := cell.Begin(OpCell, Fields{Cell: 0})
	work := Acquire("tracestore-readahead")
	wsp := work.Begin(OpDrive, Fields{})
	work.Begin(OpSegmentIO, Fields{Segment: 3, Depth: 1}).End()
	wsp.End()
	csp.End()
	Release(cell)
	Release(work)
	root.End()
	return StopRecording()
}

func TestWriteTraceEventPerfettoShape(t *testing.T) {
	snap := buildSnapshot(t)
	var buf bytes.Buffer
	if err := snap.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace_event output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	names := map[string]bool{}
	lastTs := -1.0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			continue
		case "X":
			ts := ev["ts"].(float64)
			if ts < lastTs {
				t.Fatalf("timestamps not monotonic: %f after %f", ts, lastTs)
			}
			lastTs = ts
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("X event without non-negative dur: %v", ev)
			}
			names[ev["name"].(string)] = true
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	for _, want := range []string{"experiment", "sweep.cell", "trace.drive", "tracestore.segment_io"} {
		if !names[want] {
			t.Fatalf("missing X event %q; have %v", want, names)
		}
	}
	// Thread metadata names every track.
	labels := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			labels[args["name"].(string)] = true
		}
	}
	for _, want := range []string{"main", "sweep-worker 0", "tracestore-readahead"} {
		if !labels[want] {
			t.Fatalf("missing thread_name %q; have %v", want, labels)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	snap := buildSnapshot(t)
	var buf bytes.Buffer
	if err := snap.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty JSONL output")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad header line: %v", err)
	}
	if hdr.Schema != JSONLSchema {
		t.Fatalf("schema = %q, want %q", hdr.Schema, JSONLSchema)
	}
	lines := 0
	sawSegment := false
	for sc.Scan() {
		var line jsonlSpan
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if line.Op == "" || line.Track == "" {
			t.Fatalf("span line missing op/track: %q", sc.Text())
		}
		if line.Op == "tracestore.segment_io" {
			sawSegment = true
			if line.Attrs["segment"] != float64(3) || line.Attrs["depth"] != float64(1) {
				t.Fatalf("segment span attrs = %v", line.Attrs)
			}
		}
		lines++
	}
	if lines != hdr.Spans {
		t.Fatalf("header says %d spans, file has %d lines", hdr.Spans, lines)
	}
	if !sawSegment {
		t.Fatal("no tracestore.segment_io span in JSONL log")
	}
}
