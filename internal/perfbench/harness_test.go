package perfbench

import (
	"path/filepath"
	"testing"
	"time"
)

// fastOptions keeps a full-registry harness run in test time: throughput
// numbers are noisy at these durations, but the report structure and the
// allocs/pass figures are exact.
func fastOptions() Options {
	return Options{
		MinTime:     5 * time.Millisecond,
		Repeats:     2,
		AllocPasses: 2,
	}
}

// TestRunAllWorkloads runs the full registry and checks the acceptance
// shape: at least six workloads, every one with throughput figures, and
// the pinned classifier paths at zero steady-state allocations.
func TestRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	rep, err := Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) < 6 {
		t.Fatalf("registry has %d workloads, acceptance floor is 6", len(rep.Workloads))
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Host == "" || rep.GoVersion == "" || rep.NumCPU <= 0 || rep.Date == "" {
		t.Fatalf("host metadata incomplete: %+v", rep)
	}
	pinned := 0
	for _, w := range rep.Workloads {
		if w.RefsPerPass == 0 {
			t.Errorf("%s: zero refs per pass", w.Name)
		}
		if w.RefsPerSec <= 0 || w.NsPerRef <= 0 {
			t.Errorf("%s: missing throughput figures: %+v", w.Name, w)
		}
		if w.Passes <= 0 {
			t.Errorf("%s: no timed passes", w.Name)
		}
		if w.Pinned {
			pinned++
			if w.AllocsPerPass >= 1 {
				t.Errorf("%s: pinned path allocates %.1f allocs/pass", w.Name, w.AllocsPerPass)
			}
		}
	}
	if pinned < 3 {
		t.Errorf("only %d pinned workloads, want the three classifiers", pinned)
	}
}

// TestReportRoundTrip: WriteFile then Load preserves the report.
func TestReportRoundTrip(t *testing.T) {
	rep, err := Run(Options{
		MinTime:     time.Millisecond,
		Repeats:     1,
		AllocPasses: 1,
		Workloads:   []string{"classify/appendixA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Workloads) != 1 || got.Workloads[0].Name != "classify/appendixA" {
		t.Fatalf("round trip mangled report: %+v", got)
	}
	if got.Workloads[0].RefsPerSec != rep.Workloads[0].RefsPerSec {
		t.Fatalf("refs/s changed across round trip: %f != %f",
			got.Workloads[0].RefsPerSec, rep.Workloads[0].RefsPerSec)
	}
}

// TestLoadRejectsWrongSchema: a report with a foreign schema string does
// not load (the gate must never diff across schema versions).
func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	rep := newReport(time.Now())
	rep.Schema = "somebody/else/v9"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a wrong-schema report")
	}
}

// TestCommittedBaselineLoads: the baseline that make bench-gate and CI's
// gate job compare against loads under the current schema and names
// exactly the registered workloads, so a schema bump or a renamed
// workload fails here rather than only in the gate job. It measures
// nothing.
func TestCommittedBaselineLoads(t *testing.T) {
	rep, err := Load(filepath.Join("..", "..", "results", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, w := range All() {
		registered[w.Name] = true
		if _, ok := rep.Result(w.Name); !ok {
			t.Errorf("baseline has no result for registered workload %q", w.Name)
		}
	}
	for _, w := range rep.Workloads {
		if !registered[w.Name] {
			t.Errorf("baseline holds unregistered workload %q", w.Name)
		}
	}
}

// TestFindUnknownWorkload: asking for an unregistered workload is an
// error, not a silent empty run.
func TestFindUnknownWorkload(t *testing.T) {
	if _, err := Find([]string{"no/such"}); err == nil {
		t.Fatal("Find accepted an unknown workload name")
	}
	all, err := Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 6 {
		t.Fatalf("Find(nil) returned %d workloads", len(all))
	}
}

// TestDefaultFilename: the conventional name embeds host and date.
func TestDefaultFilename(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	name := DefaultFilename(now)
	if filepath.Ext(name) != ".json" {
		t.Fatalf("name %q not .json", name)
	}
	if want := "_2026-08-07.json"; len(name) < len(want) || name[len(name)-len(want):] != want {
		t.Fatalf("name %q does not end with %q", name, want)
	}
	if name[:6] != "BENCH_" {
		t.Fatalf("name %q does not start with BENCH_", name)
	}
}
