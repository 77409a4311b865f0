package perfbench

import (
	"strings"
	"testing"
	"time"
)

func syntheticReport(rps map[string]float64) *Report {
	rep := newReport(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	for name, v := range rps {
		w := WorkloadResult{
			Name: name, RefsPerPass: 1000, Passes: 3,
			RefsPerSec: v, NsPerRef: 1e9 / v,
		}
		if strings.HasPrefix(name, "classify/") {
			w.Pinned = true
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	rep.sortWorkloads()
	return rep
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6, "schedules/all7": 10e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 48e6, "schedules/all7": 10.5e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed within tolerance: %+v", g.Rows)
	}
	for _, r := range g.Rows {
		if r.Verdict != VerdictOK {
			t.Errorf("%s: verdict %s, want ok", r.Name, r.Verdict)
		}
	}
}

// TestCompareDoctoredBaselineFails: against a baseline with inflated
// throughput (the acceptance-criteria scenario), the gate fails and the
// regression table names the slow workload.
func TestCompareDoctoredBaselineFails(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 500e6}) // doctored 10x
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed against a doctored baseline")
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Verdict != VerdictSlow {
		t.Fatalf("failures = %+v, want one slow verdict", fails)
	}
	var sb strings.Builder
	g.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"classify/appendixA", "slow", "PERF GATE FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("regression table missing %q:\n%s", want, out)
		}
	}
}

func TestCompareMissingWorkloadFails(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6, "finite/lru": 20e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed with a baseline workload missing from the run")
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Name != "finite/lru" || fails[0].Verdict != VerdictMissing {
		t.Fatalf("failures = %+v", fails)
	}
}

func TestComparePinnedAllocsHardFail(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 55e6}) // faster, but...
	cur.Workloads[0].AllocsPerPass = 3
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed a pinned path that allocates")
	}
	if fails := g.Failures(); len(fails) != 1 || fails[0].Verdict != VerdictAllocs {
		t.Fatalf("failures = %+v, want one allocs verdict", g.Failures())
	}
}

// TestCompareFastAndNewPass: being faster than baseline or adding a new
// workload is not a failure.
func TestCompareFastAndNewPass(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 80e6, "classify/new8": 9e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed on improvement: %+v", g.Rows)
	}
	verdicts := map[string]Verdict{}
	for _, r := range g.Rows {
		verdicts[r.Name] = r.Verdict
	}
	if verdicts["classify/appendixA"] != VerdictFast {
		t.Errorf("faster workload verdict = %s, want fast", verdicts["classify/appendixA"])
	}
	if verdicts["classify/new8"] != VerdictNew {
		t.Errorf("new workload verdict = %s, want new", verdicts["classify/new8"])
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	base.Schema = "other/v2"
	if _, err := Compare(base, cur, DefaultTolerance()); err == nil {
		t.Fatal("Compare accepted mismatched schemas")
	}
}
