package uselessmiss

// Cross-module integration invariants over the real benchmark traces (the
// random-trace variants live in the internal packages; these run the whole
// pipeline end to end the way the paper's evaluation does).

import (
	"bytes"
	"testing"
)

// Every schedule is bounded below by the essential miss rate on the
// race-free benchmark traces, at both the cache and the page block size,
// and bounded above by MAX.
func TestWorkloadProtocolBounds(t *testing.T) {
	for _, name := range SmallWorkloads() {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{64, 1024} {
			g := MustGeometry(block)
			results := make(map[string]Result)
			for _, proto := range Protocols() {
				res, err := RunProtocol(proto, w.Reader(), g)
				if err != nil {
					t.Fatal(err)
				}
				results[proto] = res
			}
			min := results["MIN"].Misses
			max := results["MAX"].Misses
			for proto, res := range results {
				// A delayed protocol realizes a slightly different
				// legal execution, whose own essential count can
				// sit a hair below the trace's (§2.3); allow 2%.
				if float64(res.Misses) < 0.98*float64(min) {
					t.Errorf("%s/%s B=%d: %d misses below essential %d",
						name, proto, block, res.Misses, min)
				}
				if res.Misses > max {
					t.Errorf("%s/%s B=%d: %d misses above MAX %d",
						name, proto, block, res.Misses, max)
				}
				if res.Counts.Cold() != results["MIN"].Counts.Cold() {
					t.Errorf("%s/%s B=%d: cold %d != MIN's %d",
						name, proto, block, res.Counts.Cold(), results["MIN"].Counts.Cold())
				}
			}
			// "Store combining at the sending end occurs seldom
			// for B=64" (§6): SD stays within half a percent of
			// OTF at cache blocks.
			if block == 64 {
				sd, otf := float64(results["SD"].Misses), float64(results["OTF"].Misses)
				if sd < 0.995*otf || sd > 1.005*otf {
					t.Errorf("%s B=64: SD %d should be within 0.5%% of OTF %d",
						name, results["SD"].Misses, results["OTF"].Misses)
				}
			}
		}
	}
}

// The OTF protocol's full decomposition equals the Appendix A
// classification on every benchmark, at cache and page block sizes.
func TestWorkloadOTFIsTheClassification(t *testing.T) {
	for _, name := range SmallWorkloads() {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{64, 1024} {
			g := MustGeometry(block)
			counts, refs, err := Classify(w.Reader(), g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunProtocol("OTF", w.Reader(), g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != counts || res.DataRefs != refs {
				t.Errorf("%s B=%d: OTF %+v != classification %+v", name, block, res.Counts, counts)
			}
		}
	}
}

// Essential misses never increase with the block size on the benchmarks
// (the §2.1 theorem, checked on real traces across the full sweep).
func TestWorkloadEssentialMonotone(t *testing.T) {
	for _, name := range SmallWorkloads() {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		prev := ^uint64(0)
		for _, block := range []int{8, 32, 128, 512, 2048} {
			counts, _, err := Classify(w.Reader(), MustGeometry(block))
			if err != nil {
				t.Fatal(err)
			}
			if e := counts.Essential(); e > prev {
				t.Errorf("%s: essential grew %d -> %d at B=%d", name, prev, e, block)
			} else {
				prev = e
			}
		}
	}
}

// Packing a benchmark trace and replaying the packed bytes preserves every
// analysis result.
func TestPackOpenPackedTransparency(t *testing.T) {
	w, err := Workload("LU32")
	if err != nil {
		t.Fatal(err)
	}
	g := MustGeometry(64)

	direct, _, err := Classify(w.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Pack(&buf, w.Reader()); err != nil {
		t.Fatal(err)
	}
	packed, err := OpenPacked(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	viaPacked, _, err := Classify(packed, g)
	if err != nil {
		t.Fatal(err)
	}
	if direct != viaPacked {
		t.Errorf("packing changed the classification: %+v vs %+v", direct, viaPacked)
	}
}
