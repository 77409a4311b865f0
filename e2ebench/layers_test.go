package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	parent := &node{start: 0, end: 100}
	children := []*node{
		{start: 10, end: 40},
		{start: 30, end: 60},  // overlaps the first: union [10, 60]
		{start: 20, end: 50},  // inside that union
		{start: 90, end: 120}, // sticks out of the parent: counts [90, 100]
		{start: 150, end: 160},
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self time %d, want 40 (100 minus the union [10,60] + [90,100])", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("childless self time %d, want 100", got)
	}
}

// TestAttributeLinksTracksAndSumsLayers builds the span tree of one driver
// call: the benchmark's pass and driver spans, the program's experiment span
// on the main track, and two sweep workers whose cells overlap in time.
func TestAttributeLinksTracksAndSumsLayers(t *testing.T) {
	nodes := []node{
		{id: ownIDBase + 1, track: "bench/main", op: "pass", layer: "unattributed", own: true, start: 0, end: 1000},
		{id: ownIDBase + 2, parent: ownIDBase + 1, track: "bench/main", op: "driver.fig6a", layer: "experiment",
			drives: "coherence", own: true, start: 10, end: 910},
		{id: 1, track: "0:main", op: "experiment", main: true, start: 20, end: 900},
		// worker 0: a cell [100, 500] with a replay and a drive inside
		{id: 2, track: "1:sweep-worker 0", op: "sweep.cell_wait", wait: true, start: 30, end: 100},
		{id: 3, track: "1:sweep-worker 0", op: "sweep.cell", start: 100, end: 500},
		{id: 4, parent: 3, track: "1:sweep-worker 0", op: "cell.replay", start: 110, end: 490},
		{id: 5, parent: 4, track: "1:sweep-worker 0", op: "trace.drive", start: 120, end: 480},
		// worker 1: a cell [300, 800] overlapping worker 0's
		{id: 6, track: "2:sweep-worker 1", op: "sweep.cell", start: 300, end: 800},
		{id: 7, parent: 6, track: "2:sweep-worker 1", op: "cell.replay", start: 300, end: 800},
		{id: 8, parent: 7, track: "2:sweep-worker 1", op: "fused.resolve", start: 400, end: 500},
	}
	at := attribute(nodes)
	want := map[string]float64{
		"unattributed": 100,            // pass minus the driver call
		"experiment":   20 + 180,       // the driver wrapper, and experiment minus the cells' union [100, 800]
		"sweep":        20,             // cell 3 minus its replay
		"coherence":    20 + 360 + 400, // replay 4 and drive 5, replay 7 minus the resolve
		"core":         100,            // fused.resolve
	}
	for layer, ns := range want {
		if got := at.self[layer] * 1e9; math.Abs(got-ns) > 1e-6 {
			t.Errorf("layer %s self %.0f ns, want %.0f", layer, got, ns)
		}
	}
	if got, want := at.total()*1e9, 300.0+400+500; math.Abs(got-want) > 1e-6 {
		t.Errorf("total self %.0f ns, want %.0f (the main timeline outside the cells, plus both cells)", got, want)
	}
	if got := at.opDur["sweep.cell_wait"] * 1e9; got != 70 {
		t.Errorf("cell wait %.0f ns, want 70", got)
	}
}
