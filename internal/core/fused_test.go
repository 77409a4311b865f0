package core

// The fused-replay differential suite: one fused pass over a trace must
// reproduce, geometry by geometry and bit for bit, the counts of the
// per-geometry classifiers run over separate replays — for all three
// schemes, with every miss class covered non-vacuously, and with the
// paper's accounting identities intact on the fused path.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// quickConf bounds a differential property's iteration count so the full
// {scheme x geometry} sweep stays fast.
func quickConf(n int) *quick.Config { return &quick.Config{MaxCount: n} }

// randomMixedTrace interleaves contended data references with sync and
// phase references, which the classifiers must step over.
func randomMixedTrace(rng *rand.Rand, procs, n, addrRange int) *trace.Trace {
	tr := trace.New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(12) {
		case 0:
			tr.Append(trace.A(p, mem.Addr(addrRange+rng.Intn(4))))
		case 1:
			tr.Append(trace.R(p, mem.Addr(addrRange+rng.Intn(4))))
		case 2:
			tr.Append(trace.P())
		case 3, 4, 5:
			tr.Append(trace.S(p, mem.Addr(rng.Intn(addrRange))))
		default:
			tr.Append(trace.L(p, mem.Addr(rng.Intn(addrRange))))
		}
	}
	return tr
}

// allClassesTrace produces every one of the five miss classes at B=8
// (2 words per block): the differential properties then cannot pass
// vacuously on traces missing a class.
func allClassesTrace() *trace.Trace {
	return trace.New(3,
		// P0 loads block 0 untouched: PC when the lifetime closes.
		trace.L(0, 0),
		// P1 stores word 1 of block 0, invalidating P0 (classifies P0's
		// PC), then P0 misses again and reads the new value: PTS.
		trace.S(1, 1),
		trace.L(0, 1),
		// P1 stores word 0; P0's copy dies again; P0 refetches but only
		// touches word 1, which P1 did not redefine: PFS.
		trace.S(1, 0),
		trace.L(0, 1),
		trace.S(1, 0),
		// P2's first miss lands on a modified block and reads a
		// communicated word: CTS.
		trace.L(2, 0),
		// Block 2 (words 4-5): P1 modifies it first, then P2's cold miss
		// touches only the word P1 never wrote: CFS.
		trace.S(1, 4),
		trace.L(2, 5),
	)
}

// fusedGeometries is the nesting sweep the fused suite exercises: out of
// order and with a duplicate, so the internal level sort and the
// independence of duplicate levels are both under test.
func fusedGeometries() []mem.Geometry {
	return []mem.Geometry{
		mem.MustGeometry(64),
		mem.MustGeometry(4),
		mem.MustGeometry(1024),
		mem.MustGeometry(16),
		mem.MustGeometry(64), // duplicate level
		mem.MustGeometry(256),
	}
}

// TestFusedMatchesPerGeometry is the headline differential property: the
// fused one-pass classification equals a fresh per-geometry replay for
// every geometry and all three schemes.
func TestFusedMatchesPerGeometry(t *testing.T) {
	geos := fusedGeometries()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 900, 640)

		fused, refs, err := FusedClassify(tr.Reader(), geos)
		if err != nil {
			t.Log(err)
			return false
		}
		fusedE, refsE, err := FusedClassifyEggers(tr.Reader(), geos)
		if err != nil {
			t.Log(err)
			return false
		}
		fusedT, refsT, err := FusedClassifyTorrellas(tr.Reader(), geos)
		if err != nil {
			t.Log(err)
			return false
		}
		if refs != tr.DataRefs() || refsE != refs || refsT != refs {
			t.Logf("denominators diverge: ours %d eggers %d torrellas %d, trace %d",
				refs, refsE, refsT, tr.DataRefs())
			return false
		}
		for gi, g := range geos {
			want, wantRefs, err := Classify(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			if fused[gi] != want || refs != wantRefs {
				t.Logf("%v: fused %+v, per-cell %+v", g, fused[gi], want)
				return false
			}
			wantE, _, err := ClassifyEggers(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			if fusedE[gi] != wantE {
				t.Logf("%v eggers: fused %+v, per-cell %+v", g, fusedE[gi], wantE)
				return false
			}
			wantT, _, err := ClassifyTorrellas(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			if fusedT[gi] != wantT {
				t.Logf("%v torrellas: fused %+v, per-cell %+v", g, fusedT[gi], wantT)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(10)); err != nil {
		t.Fatal(err)
	}
}

// TestFusedCoversAllFiveClasses pins the differential on a trace known to
// produce PC, CTS, CFS, PTS and PFS at B=8, so the equality above cannot
// pass vacuously on a class that never occurs.
func TestFusedCoversAllFiveClasses(t *testing.T) {
	tr := allClassesTrace()
	geos := []mem.Geometry{mem.MustGeometry(4), mem.MustGeometry(8), mem.MustGeometry(32)}
	fused, refs, err := FusedClassify(tr.Reader(), geos)
	if err != nil {
		t.Fatal(err)
	}
	at8 := fused[1]
	if at8.PC == 0 || at8.CTS == 0 || at8.CFS == 0 || at8.PTS == 0 || at8.PFS == 0 {
		t.Fatalf("fused counts at B=8 do not cover all five classes: %+v", at8)
	}
	for gi, g := range geos {
		want, wantRefs, err := Classify(tr.Reader(), g)
		if err != nil {
			t.Fatal(err)
		}
		if fused[gi] != want || refs != wantRefs {
			t.Errorf("%v: fused %+v (%d refs), want %+v (%d refs)", g, fused[gi], refs, want, wantRefs)
		}
	}
}

// TestFusedInvariants checks the paper's accounting identities on the
// fused path: Essential = Cold + PTS (+ Repl, which the infinite-cache
// fused path keeps at 0) at every level, and the data-reference
// denominator is conserved exactly.
func TestFusedInvariants(t *testing.T) {
	geos := fusedGeometries()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 5, 700, 320)
		fused, refs, err := FusedClassify(tr.Reader(), geos)
		if err != nil {
			t.Log(err)
			return false
		}
		if refs != tr.DataRefs() {
			t.Logf("data refs not conserved: %d of %d", refs, tr.DataRefs())
			return false
		}
		for gi, c := range fused {
			if c.Repl != 0 {
				t.Logf("%v: infinite-cache fused pass produced %d replacement misses", geos[gi], c.Repl)
				return false
			}
			if c.Essential() != c.Cold()+c.PTS {
				t.Logf("%v: essential %d != cold %d + PTS %d", geos[gi], c.Essential(), c.Cold(), c.PTS)
				return false
			}
			if c.Essential() > c.Total() {
				t.Logf("%v: essential %d > total %d", geos[gi], c.Essential(), c.Total())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(15)); err != nil {
		t.Fatal(err)
	}
}

// TestFusedDuplicateLevelsAgree: duplicate geometries in one fused pass
// must produce identical counts (their levels share the pass but not the
// state).
func TestFusedDuplicateLevelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomMixedTrace(rng, 6, 1000, 512)
	geos := fusedGeometries() // geos[0] and geos[4] are both B=64
	fused, _, err := FusedClassify(tr.Reader(), geos)
	if err != nil {
		t.Fatal(err)
	}
	if fused[0] != fused[4] {
		t.Fatalf("duplicate B=64 levels diverge: %+v vs %+v", fused[0], fused[4])
	}
	fusedE, _, err := FusedClassifyEggers(tr.Reader(), geos)
	if err != nil {
		t.Fatal(err)
	}
	if fusedE[0] != fusedE[4] {
		t.Fatalf("duplicate Eggers levels diverge: %+v vs %+v", fusedE[0], fusedE[4])
	}
	fusedT, _, err := FusedClassifyTorrellas(tr.Reader(), geos)
	if err != nil {
		t.Fatal(err)
	}
	if fusedT[0] != fusedT[4] {
		t.Fatalf("duplicate Torrellas levels diverge: %+v vs %+v", fusedT[0], fusedT[4])
	}
}
