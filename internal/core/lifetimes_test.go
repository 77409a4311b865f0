package core

// Direct tests of the Lifetimes engine API, exercised the way the protocol
// simulators drive it (the Classifier-driven paths are covered by the
// figure and property tests).

import (
	"testing"

	"repro/internal/mem"
)

func TestLifetimesAccessors(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(4, g)
	if l.NumProcs() != 4 {
		t.Errorf("NumProcs = %d", l.NumProcs())
	}
	if l.Geometry() != g {
		t.Error("Geometry mismatch")
	}
	if l.Snapshot() != (Counts{}) {
		t.Error("fresh engine has counts")
	}
}

func TestLifetimesBasicCycle(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(2, g)

	h := l.NewBlock(g.BlockOf(0))

	// P0 misses, stores; P1 misses, reads the new value; P0's store
	// invalidates nothing (P1 came later).
	l.OpenMiss(0, h)
	l.Access(0, h, 0)
	l.RecordStore(0, h, 0)

	l.OpenMiss(1, h)
	l.Access(1, h, 0) // touches P0's fresh value: essential

	l.CloseInvalidate(0, h) // P0's cold lifetime ends
	if snap := l.Snapshot(); snap.PC != 1 {
		t.Errorf("snapshot after one close = %+v", snap)
	}
	counts := l.Finish()
	if want := (Counts{PC: 1, CTS: 1}); counts != want {
		t.Errorf("counts = %+v, want %+v", counts, want)
	}
}

func TestLifetimesCloseIdempotent(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(2, g)
	h := l.NewBlock(g.BlockOf(0))

	// Closing without an open lifetime is a no-op.
	l.CloseInvalidate(0, h)
	l.CloseReplace(0, h)
	l.CloseInvalidate(1, l.NewBlock(mem.Block(99))) // a handle with no open lifetime: no-op
	if l.Finish() != (Counts{}) {
		t.Error("no-op closes produced counts")
	}
}

func TestLifetimesAccessWithoutLifetime(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(2, g)
	h := l.NewBlock(g.BlockOf(0))
	l.RecordStore(0, h, 0)
	l.Access(1, h, 0)                        // P1 has no open lifetime: ignored
	l.Access(1, l.NewBlock(g.BlockOf(9)), 9) // a handle with no open lifetime: ignored
	if l.Finish() != (Counts{}) {
		t.Error("stray accesses produced counts")
	}
}

func TestLifetimesReplaceCycle(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(1, g)
	h := l.NewBlock(g.BlockOf(0))

	l.OpenMiss(0, h)
	l.Access(0, h, 0)
	l.CloseReplace(0, h) // evicted
	l.OpenMiss(0, h)     // refetch: a replacement miss
	l.Access(0, h, 0)
	counts := l.Finish()
	if want := (Counts{PC: 1, Repl: 1}); counts != want {
		t.Errorf("counts = %+v, want %+v", counts, want)
	}
}

func TestLifetimesUpgradeMissClassifiesOldLifetime(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(2, g)
	h := l.NewBlock(g.BlockOf(0))

	l.OpenMiss(0, h)
	l.Access(0, h, 0)
	// A second OpenMiss without an intervening close (the upgrade-miss
	// path) must classify the first lifetime.
	l.OpenMiss(0, h)
	if snap := l.Snapshot(); snap.PC != 1 {
		t.Errorf("old lifetime not classified: %+v", snap)
	}
}

func TestLifetimesHookSeesEveryClose(t *testing.T) {
	g := mem.MustGeometry(8)
	l := NewLifetimes(2, g)
	var events []Class
	l.OnClassify = func(p int, b mem.Block, class Class) {
		events = append(events, class)
	}
	h := l.NewBlock(g.BlockOf(0))
	l.OpenMiss(0, h)
	l.RecordStore(0, h, 0)
	l.OpenMiss(1, h)
	l.Access(1, h, 0)
	l.CloseInvalidate(1, h)
	l.Finish()
	if len(events) != 2 {
		t.Fatalf("hook saw %d events, want 2", len(events))
	}
	if events[0] != ClassCTS || events[1] != ClassPC {
		t.Errorf("events = %v", events)
	}
}
