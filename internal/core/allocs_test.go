package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// allocTestRefs builds a sharing-heavy reference mix over a fixed block set:
// re-feeding it touches only existing table entries, so a warmed classifier
// should allocate nothing.
func allocTestRefs(procs, blocks int, g mem.Geometry) []trace.Ref {
	refs := make([]trace.Ref, 0, 4096)
	stride := mem.Addr(g.BlockBytes() / mem.WordBytes)
	for i := 0; i < 4096; i++ {
		p := i % procs
		a := mem.Addr(i%blocks)*stride + mem.Addr(i%4)
		if i%5 == 0 {
			refs = append(refs, trace.S(p, a))
		} else {
			refs = append(refs, trace.L(p, a))
		}
	}
	return refs
}

// TestClassifierSteadyStateAllocs pins the Appendix A classifier's hot path
// to zero steady-state allocations: once every block has its dense-table
// entry, classifying references must not touch the heap.
func TestClassifierSteadyStateAllocs(t *testing.T) {
	g := mem.MustGeometry(64)
	refs := allocTestRefs(4, 64, g)
	c := NewClassifier(4, g)
	c.RefBatch(refs) // warm up: populate the block table

	const ceiling = 0.0
	got := testing.AllocsPerRun(10, func() { c.RefBatch(refs) })
	if got > ceiling {
		t.Fatalf("Classifier steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}

// TestEggersSteadyStateAllocs does the same for the Eggers comparison
// classifier, whose per-block word vectors live in the shared arena.
func TestEggersSteadyStateAllocs(t *testing.T) {
	g := mem.MustGeometry(64)
	refs := allocTestRefs(4, 64, g)
	c := NewEggers(4, g)
	c.RefBatch(refs)

	const ceiling = 0.0
	got := testing.AllocsPerRun(10, func() { c.RefBatch(refs) })
	if got > ceiling {
		t.Fatalf("Eggers steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}

// TestFusedSteadyStateAllocs pins the fused multi-geometry classifier pass
// to zero steady-state allocations: once the hierarchical state exists for
// every fine block, folding references into all the levels must not touch
// the heap — otherwise fusing the sweep would trade one replay per block
// size for a GC tax. All three fused schemes are pinned.
func TestFusedSteadyStateAllocs(t *testing.T) {
	geos := []mem.Geometry{
		mem.MustGeometry(8), mem.MustGeometry(64), mem.MustGeometry(1024),
	}
	refs := allocTestRefs(4, 64, mem.MustGeometry(8))

	const ceiling = 0.0
	oc := NewFusedClassifier(4, geos)
	oc.RefBatch(refs) // warm up: populate the hierarchical tables
	if got := testing.AllocsPerRun(10, func() { oc.RefBatch(refs) }); got > ceiling {
		t.Errorf("FusedClassifier steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}

	ec := NewFusedEggers(4, geos)
	ec.RefBatch(refs)
	if got := testing.AllocsPerRun(10, func() { ec.RefBatch(refs) }); got > ceiling {
		t.Errorf("FusedEggers steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}

	tc := NewFusedTorrellas(4, geos)
	tc.RefBatch(refs)
	if got := testing.AllocsPerRun(10, func() { tc.RefBatch(refs) }); got > ceiling {
		t.Errorf("FusedTorrellas steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}

// TestInstrumentedPassAllocs pins a fully instrumented classifier pass —
// the batch delivery plus the per-batch metric updates Drive performs
// (counter adds and a histogram observation) and the Finish-time counter —
// to zero steady-state allocations. This is the regression guard for the
// observability layer's "zero overhead" claim: instrumentation must not
// reintroduce heap traffic on the replay path.
func TestInstrumentedPassAllocs(t *testing.T) {
	g := mem.MustGeometry(64)
	refs := allocTestRefs(4, 64, g)
	c := NewClassifier(4, g)
	c.RefBatch(refs) // warm up: populate the block table

	refsCtr := obs.Default.Counter(obs.NameDriveRefs)
	batches := obs.Default.Counter(obs.NameDriveBatches)
	sizes := obs.Default.Histogram(obs.NameDriveBatchSize, nil)

	const ceiling = 0.0
	got := testing.AllocsPerRun(10, func() {
		refsCtr.Add(uint64(len(refs)))
		batches.Inc()
		sizes.Observe(uint64(len(refs)))
		c.RefBatch(refs)
		mOursRefs.Add(uint64(len(refs)))
	})
	if got > ceiling {
		t.Fatalf("instrumented pass allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}
