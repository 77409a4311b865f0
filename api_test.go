package uselessmiss

// End-to-end tests of the public facade: the headline results of the paper
// expressed against the exported API only.

import (
	"bytes"
	"strings"
	"testing"
)

func TestProtocolsListIsACopy(t *testing.T) {
	a := Protocols()
	a[0] = "corrupted"
	b := Protocols()
	if b[0] != "MIN" {
		t.Error("Protocols() exposes internal state")
	}
	if len(b) != 7 {
		t.Errorf("expected 7 protocols, got %v", b)
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(WorkloadNames()) != 7 {
		t.Errorf("WorkloadNames = %v", WorkloadNames())
	}
	if len(SmallWorkloads()) != 4 || len(LargeWorkloads()) != 3 {
		t.Error("experiment sets wrong")
	}
	if _, err := Workload("NOPE"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The paper's central identity, via the public API only: the MIN protocol's
// miss count equals the essential miss count from the Appendix A
// classification, for every benchmark.
func TestHeadlineMINEqualsEssential(t *testing.T) {
	g := MustGeometry(64)
	for _, name := range SmallWorkloads() {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		counts, refs, err := Classify(w.Reader(), g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunProtocol("MIN", w.Reader(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != counts.Essential() {
			t.Errorf("%s: MIN %d != essential %d", name, res.Misses, counts.Essential())
		}
		if res.DataRefs != refs {
			t.Errorf("%s: ref counts differ: %d vs %d", name, res.DataRefs, refs)
		}
		if res.Counts.PFS != 0 {
			t.Errorf("%s: MIN produced false sharing: %+v", name, res.Counts)
		}
	}
}

// §6/§7 headline: at B=64 the delaying protocols sit essentially at the
// essential miss rate (within a few percent); at B=1024 the cost of
// ownership keeps WBWI clearly above MIN.
func TestHeadlineScheduleEffects(t *testing.T) {
	for _, name := range SmallWorkloads() {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		cache := MustGeometry(64)
		min64, err := RunProtocol("MIN", w.Reader(), cache)
		if err != nil {
			t.Fatal(err)
		}
		wbwi64, err := RunProtocol("WBWI", w.Reader(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(wbwi64.Misses) / float64(min64.Misses); ratio > 1.25 {
			t.Errorf("%s B=64: WBWI/MIN = %.2f, expected close to 1 (paper: cost of ownership is very low)", name, ratio)
		}

		page := MustGeometry(1024)
		min1k, err := RunProtocol("MIN", w.Reader(), page)
		if err != nil {
			t.Fatal(err)
		}
		otf1k, err := RunProtocol("OTF", w.Reader(), page)
		if err != nil {
			t.Fatal(err)
		}
		if otf1k.Misses <= min1k.Misses {
			t.Errorf("%s B=1024: OTF %d should exceed essential %d (useless misses dominate pages)",
				name, otf1k.Misses, min1k.Misses)
		}
	}
}

// §7: the MAX schedule is catastrophic for LU at page-sized blocks.
func TestHeadlineMAXBlowupOnLU(t *testing.T) {
	w, err := Workload("LU32")
	if err != nil {
		t.Fatal(err)
	}
	g := MustGeometry(1024)
	otf, err := RunProtocol("OTF", w.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	max, err := RunProtocol("MAX", w.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	if float64(max.Misses) < 3*float64(otf.Misses) {
		t.Errorf("MAX %d vs OTF %d: expected a very large blowup (paper §7)", max.Misses, otf.Misses)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := NewTrace(2, L(0, 1), S(1, 2), A(0, 9), R(0, 9))
	var bin, txt bytes.Buffer
	if err := Pack(&bin, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	packed, err := OpenPacked(bytes.NewReader(bin.Bytes()), int64(bin.Len()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Collect(packed)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := ParseText(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Refs {
		if fromBin.Refs[i] != tr.Refs[i] || fromTxt.Refs[i] != tr.Refs[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestFacadeGenerate(t *testing.T) {
	r := Generate(2, func(e *Emitter) {
		e.Load(0, 1)
		e.Store(1, 2)
		e.Phase()
	})
	s := NewStats(2, true)
	if err := Drive(r, s); err != nil {
		t.Fatal(err)
	}
	if s.Loads != 1 || s.Stores != 1 || s.DataSetBytes() != 2*WordBytes {
		t.Errorf("stats wrong: %+v", s)
	}
}

func TestFacadeSimulatorAndClassifierIncremental(t *testing.T) {
	g := MustGeometry(8)
	sim, err := NewSimulator("OTF", 2, g)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(2, g)
	for _, r := range []Ref{S(0, 0), L(1, 0), S(0, 1), L(1, 1)} {
		sim.Ref(r)
		cl.Ref(r)
	}
	res := sim.Finish()
	counts := cl.Finish()
	if res.Counts != counts {
		t.Errorf("incremental OTF %+v != classifier %+v", res.Counts, counts)
	}
}

func TestFacadeCustomConstructors(t *testing.T) {
	for _, w := range []*Benchmark{
		MP3D(200, 1, 4),
		Water(8, 1, 4),
		LU(16, 4),
		Jacobi(16, 2, 4),
	} {
		tr, err := Collect(w.Reader())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if tr.Procs != 4 {
			t.Errorf("%s: procs = %d", w.Name, tr.Procs)
		}
	}
}
