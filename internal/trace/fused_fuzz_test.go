package trace_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// FuzzFusedEquivalence fuzzes the fused multi-configuration replay against
// the per-geometry classifiers: arbitrary byte strings become mixed
// data/sync/phase traces, geoRaw picks an arbitrary nested geometry set
// (possibly unsorted, possibly with a duplicate level) so the hierarchical
// block-nesting state is exercised at every shape, and the fused pass must
// match a fresh per-geometry replay bit for bit for all three schemes.
// Lives in the external test package because it imports core, which
// imports trace; the committed seed corpus under
// testdata/fuzz/FuzzFusedEquivalence is pinned by TestFuzzSeedCorpora.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(0b1011))
	f.Add([]byte{5, 0, 9, 0, 1, 9, 6, 0, 9}, uint8(1), uint8(0b100001))
	f.Add([]byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, procsRaw, geoRaw uint8) {
		procs := int(procsRaw%6) + 2
		tr := trace.New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			p := int(data[i+1]) % procs
			addr := mem.Addr(data[i+2])
			switch data[i] % 8 {
			case 0, 1, 2:
				tr.Append(trace.L(p, addr))
			case 3, 4:
				tr.Append(trace.S(p, addr))
			case 5:
				tr.Append(trace.A(p, addr))
			case 6:
				tr.Append(trace.R(p, addr))
			default:
				tr.Append(trace.P())
			}
		}

		// Bits 0..5 of geoRaw select block sizes 4..128; bit 6 duplicates
		// the first selected level. Reversing the selection order leaves
		// the set unsorted so the fused level sort is under fuzz too.
		var geos []mem.Geometry
		for i := 5; i >= 0; i-- {
			if geoRaw>>uint(i)&1 != 0 {
				geos = append(geos, mem.MustGeometry(4<<uint(i)))
			}
		}
		if len(geos) == 0 {
			geos = append(geos, mem.MustGeometry(4))
		}
		if geoRaw>>6&1 != 0 {
			geos = append(geos, geos[0])
		}

		fused, refs, err := core.FusedClassify(tr.Reader(), geos)
		if err != nil {
			t.Fatalf("fused ours: %v", err)
		}
		fusedE, refsE, err := core.FusedClassifyEggers(tr.Reader(), geos)
		if err != nil {
			t.Fatalf("fused eggers: %v", err)
		}
		fusedT, refsT, err := core.FusedClassifyTorrellas(tr.Reader(), geos)
		if err != nil {
			t.Fatalf("fused torrellas: %v", err)
		}
		if refsE != refs || refsT != refs {
			t.Fatalf("denominators diverge: ours %d eggers %d torrellas %d", refs, refsE, refsT)
		}
		for gi, g := range geos {
			want, wantRefs, err := core.Classify(tr.Reader(), g)
			if err != nil {
				t.Fatalf("ours %v: %v", g, err)
			}
			if fused[gi] != want || refs != wantRefs {
				t.Fatalf("ours %v: fused %+v (%d refs), per-cell %+v (%d refs)",
					g, fused[gi], refs, want, wantRefs)
			}
			wantE, _, err := core.ClassifyEggers(tr.Reader(), g)
			if err != nil {
				t.Fatalf("eggers %v: %v", g, err)
			}
			if fusedE[gi] != wantE {
				t.Fatalf("eggers %v: fused %+v, per-cell %+v", g, fusedE[gi], wantE)
			}
			wantT, _, err := core.ClassifyTorrellas(tr.Reader(), g)
			if err != nil {
				t.Fatalf("torrellas %v: %v", g, err)
			}
			if fusedT[gi] != wantT {
				t.Fatalf("torrellas %v: fused %+v, per-cell %+v", g, fusedT[gi], wantT)
			}
		}
	})
}
