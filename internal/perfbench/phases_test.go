package perfbench

import "testing"

func TestPhaseOfStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"classifier leaf", []string{"repro/internal/core.(*Classifier).RefBatch", "repro/internal/trace.Drive"}, "classify"},
		{"runtime leaf attributes to caller", []string{"runtime.mallocgc", "repro/internal/core.NewClassifier"}, "classify"},
		{"memmove under dense", []string{"runtime.memmove", "repro/internal/dense.(*Map[...]).grow"}, "classify"},
		{"generator", []string{"repro/internal/workload.(*Workload).Reader.func1"}, "generation"},
		{"replay pump", []string{"repro/internal/trace.Drive"}, "replay"},
		{"slice reader", []string{"repro/internal/trace.(*sliceReader).NextBatch"}, "replay"},
		{"schedule", []string{"repro/internal/coherence.(*min).RefBatch"}, "classify"},
		{"finite cache", []string{"repro/internal/finite.(*Classifier).access"}, "classify"},
		{"timing model", []string{"repro/internal/timing.(*simulator).Ref"}, "classify"},
		{"renderer", []string{"repro/internal/report.(*Table).Fprint"}, "render"},
		{"gc worker", []string{"runtime.gcBgMarkWorker"}, "runtime"},
		{"pure harness", []string{"testing.(*B).runN", "testing.(*B).launch"}, "other"},
		{"empty stack", nil, "other"},
		{"experiment driver only", []string{"repro/internal/experiment.Fig5"}, "other"},
	}
	for _, tc := range cases {
		if got := PhaseOfStack(tc.stack); got != tc.want {
			t.Errorf("%s: PhaseOfStack(%v) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

// TestPhasesCanonicalOrder: the canonical phase list is stable and
// duplicate-free — BENCH_*.json consumers key on it.
func TestPhasesCanonicalOrder(t *testing.T) {
	seen := map[string]bool{}
	for _, ph := range Phases {
		if seen[ph] {
			t.Fatalf("duplicate phase %q", ph)
		}
		seen[ph] = true
	}
	for _, must := range []string{"generation", "replay", "classify", "render"} {
		if !seen[must] {
			t.Fatalf("canonical phases missing %q", must)
		}
	}
}
