package uselessmiss

// Characterization of every consumer of the lifetime engine on seeded
// random traces: the nine schedules, the sectored and limited-buffer WBWI
// variants, the Appendix A classifier, the cross-classifier and the
// finite-cache classifier under each replacement policy. The expected
// values in testdata/lifetimes_characterization.json are fixed: a change to
// any miss verdict, traffic count or cross-matrix cell shows up here, on
// traces that reach 64 processors at block sizes the paper's workloads never
// combine with them. Rewrite the file (-update-characterization) only for
// an intended change of the classification. The same traces hold the
// rate-only schedules, which run without the engine, to the full ones.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/coherence"
)

var updateCharacterization = flag.Bool("update-characterization", false,
	"rewrite testdata/lifetimes_characterization.json from the current engine")

const characterizationFile = "testdata/lifetimes_characterization.json"

// characterizationTrace mixes a contended hot region with a wide cold range
// and sprinkles acquires and releases, so every schedule's delay buffers,
// flushes and credit books run, and the finite caches replace.
func characterizationTrace(seed int64, procs, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrace(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		var a Addr
		if rng.Intn(10) < 7 {
			a = Addr(rng.Intn(512)) // hot: two B=1024 blocks
		} else {
			a = Addr(rng.Intn(16384)) // cold: 64 B=1024 blocks
		}
		switch k := rng.Intn(20); {
		case k == 0:
			tr.Append(A(p, 1<<30))
		case k == 1:
			tr.Append(R(p, 1<<30))
		case k < 8:
			tr.Append(S(p, a))
		default:
			tr.Append(L(p, a))
		}
	}
	return tr
}

// classified is a classifier's outcome: its counts and denominator.
type classified struct {
	Counts   Counts
	DataRefs uint64
}

// crossed is the cross-classifier's outcome.
type crossed struct {
	Matrix    CrossCounts
	Ours      Counts
	Eggers    SharingCounts
	Torrellas SharingCounts
}

// characterize runs every lifetime consumer over tr at block size block and
// returns the outcomes keyed by consumer name.
func characterize(t *testing.T, tr *Trace, block int) map[string]any {
	t.Helper()
	g := MustGeometry(block)
	out := make(map[string]any)
	run := func(name string, sim Simulator, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Drive(tr.Reader(), sim); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sim.Finish()
	}
	for _, name := range append(Protocols(), ExtensionProtocols()...) {
		sim, err := NewSimulator(name, tr.Procs, g)
		run(name, sim, err)
	}
	sector := max(block/4, WordBytes)
	sec, err := NewSectored(tr.Procs, g, sector)
	run("sectored", sec, err)
	lim, err := NewLimitedWBWI(tr.Procs, g, 2)
	run("wbwi-limited", lim, err)

	counts, refs, err := Classify(tr.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	out["classifier"] = classified{counts, refs}

	cc := NewCrossClassifier(tr.Procs, g)
	if err := Drive(tr.Reader(), cc); err != nil {
		t.Fatal(err)
	}
	var x crossed
	x.Matrix, x.Ours, x.Eggers, x.Torrellas = cc.Finish()
	out["cross"] = x

	for _, pol := range []CachePolicy{PolicyLRU, PolicyFIFO, PolicyRandom} {
		cfg := CacheConfig{CapacityBytes: 8 * block, Assoc: 2, Policy: pol}
		counts, refs, err := ClassifyFinite(tr.Reader(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out["finite-"+pol.String()] = classified{counts, refs}
	}
	return out
}

// characterizationTraces seeds the characterization traces, up to 64
// processors.
var characterizationTraces = []struct {
	seed         int64
	procs, count int
}{
	{1, 4, 6000},
	{2, 16, 8000},
	{3, 64, 12000},
}

// TestLifetimesCharacterization replays the seeded traces through every
// lifetime consumer and compares each outcome with the recorded one.
func TestLifetimesCharacterization(t *testing.T) {
	got := make(map[string]json.RawMessage)
	for _, tc := range characterizationTraces {
		tr := characterizationTrace(tc.seed, tc.procs, tc.count)
		for _, block := range []int{4, 64, 1024} {
			for name, v := range characterize(t, tr, block) {
				raw, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("seed=%d procs=%d B=%d %s", tc.seed, tc.procs, block, name)] = raw
			}
		}
	}
	if *updateCharacterization {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(characterizationFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(characterizationFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var w bytes.Buffer
		if err := json.Compact(&w, want[k]); err != nil {
			t.Fatal(err)
		}
		if g, ok := got[k]; !ok {
			t.Errorf("%s: not produced", k)
		} else if !bytes.Equal(g, w.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", k, g, w.Bytes())
		}
	}
	if len(got) != len(want) {
		t.Errorf("produced %d outcomes, recorded %d", len(got), len(want))
	}
}

// TestRatesOnlyMatchesFull replays the characterization traces through a
// full and a rate-only simulator of every schedule New accepts, plus the
// sectored and limited-buffer WBWI variants, side by side. After every
// reference the two must agree on the miss and upgrade counts the timing
// model reads, and at the end the rate-only Result must be the full one
// with Counts zero, while the full one keeps its split. The fused runner
// must return the same rate-only Results.
func TestRatesOnlyMatchesFull(t *testing.T) {
	type counter interface {
		MissCount() uint64
		UpgradeCount() uint64
	}
	names := append(Protocols(), ExtensionProtocols()...)
	var geos []Geometry
	for _, block := range []int{4, 64, 1024} {
		geos = append(geos, MustGeometry(block))
	}
	for _, tc := range characterizationTraces {
		tr := characterizationTrace(tc.seed, tc.procs, tc.count)
		// compare drives a full and a rate-only simulator from build side
		// by side and returns the full Result with Counts zero.
		compare := func(g Geometry, build func() (Simulator, error)) Result {
			full, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rates, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rates = coherence.RatesOnly(rates)
			id := fmt.Sprintf("seed=%d procs=%d B=%d %s", tc.seed, tc.procs, g.BlockBytes(), full.Name())
			fc, rc := full.(counter), rates.(counter)
			for i, r := range tr.Refs {
				full.Ref(r)
				rates.Ref(r)
				if fc.MissCount() != rc.MissCount() || fc.UpgradeCount() != rc.UpgradeCount() {
					t.Fatalf("%s: after reference %d (%v) rate-only misses/upgrades %d/%d, full %d/%d",
						id, i, r, rc.MissCount(), rc.UpgradeCount(), fc.MissCount(), fc.UpgradeCount())
				}
			}
			want := full.Finish()
			if want.Counts.Total() != want.Misses {
				t.Errorf("%s: full simulator classified %d of %d misses", id, want.Counts.Total(), want.Misses)
			}
			want.Counts = Counts{}
			if got := rates.Finish(); got != want {
				t.Errorf("%s:\n rate-only %+v\n      want %+v", id, got, want)
			}
			return want
		}
		var want []Result // geometry-major, like the fused runner's results
		for _, g := range geos {
			for _, name := range names {
				want = append(want, compare(g, func() (Simulator, error) { return coherence.New(name, tr.Procs, g) }))
			}
			compare(g, func() (Simulator, error) {
				return coherence.NewSectored(tr.Procs, g, max(g.BlockBytes()/4, WordBytes))
			})
			compare(g, func() (Simulator, error) { return coherence.NewWBWILimited(tr.Procs, g, 2) })
		}
		open := func() (Reader, error) { return tr.Reader(), nil }
		got, err := coherence.RunProtocols(context.Background(), open, tr.Procs, geos, names, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed=%d B=%d %s:\n fused rate-only %+v\n            want %+v",
					tc.seed, geos[i/len(names)].BlockBytes(), names[i%len(names)], got[i], want[i])
			}
		}
	}
}
