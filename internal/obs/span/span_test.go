package span

import (
	"context"
	"testing"
)

// stopRecording tears recording down even when the test already stopped
// it, keeping tests independent (the gate is process-global).
func startForTest(t *testing.T, ringSize int) *Recorder {
	t.Helper()
	r := StartRecording(ringSize)
	t.Cleanup(func() { StopRecording() })
	return r
}

func TestDisabledPathIsInert(t *testing.T) {
	if Enabled() {
		t.Fatal("recording unexpectedly enabled at test start")
	}
	if tr := Acquire("w"); tr != nil {
		t.Fatalf("Acquire = %v, want nil when disabled", tr)
	}
	if tr := Acquiref("w", 3); tr != nil {
		t.Fatalf("Acquiref = %v, want nil when disabled", tr)
	}
	if tr := Main(); tr != nil {
		t.Fatalf("Main = %v, want nil when disabled", tr)
	}
	if now := Now(); now != 0 {
		t.Fatalf("Now = %d, want 0 when disabled", now)
	}
	// All of these must be no-ops on nil receivers / zero values.
	sp := Root(OpDrive, Fields{Workload: "LU32"})
	sp.End()
	var tr *Track
	tr.Emit(OpCellWait, Fields{}, 0)
	ctx := NewContext(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext = %v, want nil", got)
	}
	Start(ctx, OpCell, Fields{}).End()
}

func TestDisabledZeroAlloc(t *testing.T) {
	if Enabled() {
		t.Fatal("recording unexpectedly enabled")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Root(OpDrive, Fields{Workload: "LU32"})
		sp.End()
		tr := Acquiref("worker", 5)
		Release(tr)
		Start(ctx, OpCell, Fields{Cell: 1}).End()
		_ = Now()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestNestingParentsAndDurations(t *testing.T) {
	startForTest(t, 0)
	tr := Acquire("worker")
	outer := tr.Begin(OpCell, Fields{Cell: 2})
	inner := tr.Begin(OpDrive, Fields{})
	inner.End()
	outer.End()
	Release(tr)

	snap := StopRecording()
	if snap == nil {
		t.Fatal("StopRecording = nil")
	}
	var spans []SpanRecord
	for _, ts := range snap.Tracks {
		if ts.Label == "worker" {
			spans = ts.Spans
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Start-sorted: the outer cell span first.
	if spans[0].Op != "sweep.cell" || spans[1].Op != "trace.drive" {
		t.Fatalf("span order = %s, %s", spans[0].Op, spans[1].Op)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("inner parent = %d, want outer id %d", spans[1].Parent, spans[0].ID)
	}
	if spans[0].Parent != 0 {
		t.Fatalf("outer parent = %d, want 0", spans[0].Parent)
	}
	for _, s := range spans {
		if s.DurNs < 0 {
			t.Fatalf("span %s has negative duration %d", s.Op, s.DurNs)
		}
	}
	if spans[0].Fields.Cell != 2 {
		t.Fatalf("cell attribute = %d, want 2", spans[0].Fields.Cell)
	}
}

func TestEndClosesAbandonedChildren(t *testing.T) {
	startForTest(t, 0)
	tr := Acquire("w")
	outer := tr.Begin(OpCell, Fields{})
	tr.Begin(OpDrive, Fields{}) // never explicitly ended
	outer.End()
	if got := len(tr.open); got != 0 {
		t.Fatalf("open stack depth after outer End = %d, want 0", got)
	}
	snap := StopRecording()
	if n := len(snap.Tracks[1].Spans); n != 2 {
		t.Fatalf("got %d spans, want 2 (child closed by parent End)", n)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	startForTest(t, 0)
	tr := Acquire("w")
	sp := tr.Begin(OpCell, Fields{})
	sp.End()
	sp.End() // must not pop anything else
	sp2 := tr.Begin(OpDrive, Fields{})
	sp.End() // stale handle at depth 1 would wrongly pop sp2...
	sp2.End()
	snap := StopRecording()
	var n int
	for _, ts := range snap.Tracks {
		n += len(ts.Spans)
	}
	// The stale End does pop sp2 early (same depth) — that is the
	// documented cost of depth-based handles; what matters is that no
	// record is lost and the stack never underflows.
	if n != 2 {
		t.Fatalf("got %d spans, want 2", n)
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	startForTest(t, 8)
	tr := Acquire("w")
	for i := 0; i < 20; i++ {
		tr.Begin(OpCell, Fields{Cell: int32(i)}).End()
	}
	snap := StopRecording()
	var ts TrackSnapshot
	for _, cand := range snap.Tracks {
		if cand.Label == "w" {
			ts = cand
		}
	}
	if len(ts.Spans) != 8 {
		t.Fatalf("retained %d spans, want ring size 8", len(ts.Spans))
	}
	if ts.Lost != 12 {
		t.Fatalf("Lost = %d, want 12", ts.Lost)
	}
	// Newest-wins: cells 12..19 retained.
	for i, s := range ts.Spans {
		if want := int32(12 + i); s.Fields.Cell != want {
			t.Fatalf("span %d cell = %d, want %d", i, s.Fields.Cell, want)
		}
	}
}

func TestOpenStackOverflowDrops(t *testing.T) {
	startForTest(t, 0)
	tr := Acquire("w")
	spans := make([]Span, 0, maxOpenDepth+5)
	for i := 0; i < maxOpenDepth+5; i++ {
		spans = append(spans, tr.Begin(OpCell, Fields{}))
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	snap := StopRecording()
	var ts TrackSnapshot
	for _, cand := range snap.Tracks {
		if cand.Label == "w" {
			ts = cand
		}
	}
	if len(ts.Spans) != maxOpenDepth {
		t.Fatalf("retained %d spans, want %d", len(ts.Spans), maxOpenDepth)
	}
	if ts.Lost != 5 {
		t.Fatalf("Lost = %d, want 5 dropped Begins", ts.Lost)
	}
}

func TestEmitRecordsQueueWait(t *testing.T) {
	startForTest(t, 0)
	submit := Now()
	tr := Acquire("w")
	tr.Emit(OpCellWait, Fields{Cell: 7}, submit)
	snap := StopRecording()
	var ts TrackSnapshot
	for _, cand := range snap.Tracks {
		if cand.Label == "w" {
			ts = cand
		}
	}
	if len(ts.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(ts.Spans))
	}
	s := ts.Spans[0]
	if s.Op != "sweep.cell_wait" || s.StartNs != submit || s.DurNs < 0 {
		t.Fatalf("unexpected wait span %+v", s)
	}
}

func TestStopClosesOpenSpans(t *testing.T) {
	startForTest(t, 0)
	Root(OpExperiment, Fields{Note: "fig5"})
	snap := StopRecording()
	main := snap.Tracks[0]
	if main.Label != "main" || len(main.Spans) != 1 {
		t.Fatalf("main track = %q with %d spans, want 1 open span closed at stop", main.Label, len(main.Spans))
	}
	if snap2 := StopRecording(); snap2 != nil {
		t.Fatalf("second StopRecording = %v, want nil", snap2)
	}
}

func TestAcquireReleaseReusesTracks(t *testing.T) {
	startForTest(t, 0)
	a := Acquire("sweep-worker 0")
	Release(a)
	b := Acquire("sweep-worker 0")
	if a != b {
		t.Fatalf("released track was not reused for the same label")
	}
	c := Acquire("sweep-worker 1")
	if c == b {
		t.Fatal("distinct labels shared a track")
	}
	Release(b)
	Release(c)
	snap := StopRecording()
	if got := len(snap.Tracks); got != 3 { // main + two workers
		t.Fatalf("got %d tracks, want 3", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	startForTest(t, 0)
	tr := Acquire("worker")
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %v, want the installed track", got)
	}
	Start(ctx, OpReplay, Fields{Workload: "LU32", Block: 64}).End()
	Release(tr)
	snap := StopRecording()
	var found bool
	for _, ts := range snap.Tracks {
		for _, s := range ts.Spans {
			if s.Op == "cell.replay" && s.Fields.Workload == "LU32" && s.Fields.Block == 64 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("replay span with workload/block attributes not recorded")
	}
}
