package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfbench"
)

// benchArgs keeps CLI bench test runs fast; the structure assertions do
// not depend on measurement quality.
func benchArgs(extra ...string) []string {
	args := []string{"bench", "-benchtime", "5ms", "-allocpasses", "1"}
	return append(args, extra...)
}

// TestBenchWritesReport: the bench subcommand writes a v2 BENCH JSON,
// with no phase breakdown, for at least six workloads, and the summary
// table reaches stdout. Six cheap workloads show the report's shape;
// internal/perfbench's TestRunAllWorkloads measures the whole registry.
func TestBenchWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	var sb strings.Builder
	workloads := "-workloads=classify/appendixA,classify/eggers,classify/torrellas," +
		"schedules/all7,finite/lru,serve/submit-path"
	if err := run(benchArgs("-o", path, workloads), &sb); err != nil {
		t.Fatalf("bench: %v", err)
	}
	rep, err := perfbench.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) < 6 {
		t.Fatalf("report has %d workloads, want >= 6", len(rep.Workloads))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"uselessmiss/perfbench/v2"`)) {
		t.Errorf("report does not carry the v2 schema:\n%s", raw)
	}
	for _, key := range []string{`"phases"`, `"cpu_sample_nanos"`} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("report still carries the %s key", key)
		}
	}
	out := sb.String()
	for _, want := range []string{"classify/appendixA", "refs/s", "wrote "} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchGatePassesAgainstFreshBaseline: a run gated against a baseline
// saved moments earlier passes (same host, same binary).
func TestBenchGatePassesAgainstFreshBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")
	var sb strings.Builder
	// Single stable pinned workload: short-run throughput of the heavier
	// workloads is too noisy to gate at ±10% in a unit test; appendixA is
	// measured over identical in-memory passes.
	wl := "-workloads=classify/appendixA"
	if err := run(benchArgs("-o", base, wl), &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err := run(benchArgs("-o", filepath.Join(dir, "BENCH_new.json"),
		"-baseline", base, "-tolerance", "0.8", wl), &sb)
	if err != nil {
		t.Fatalf("gate against fresh baseline failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "perf gate passed") {
		t.Errorf("output missing pass note:\n%s", sb.String())
	}
}

// TestBenchGateFailsAgainstDoctoredBaseline: inflating the baseline
// throughput 100x must fail the gate with a regression table and a
// non-nil error (exit code 1 at the CLI).
func TestBenchGateFailsAgainstDoctoredBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")
	var sb strings.Builder
	wl := "-workloads=classify/appendixA"
	if err := run(benchArgs("-o", base, wl), &sb); err != nil {
		t.Fatal(err)
	}

	doctorBaseline(t, base, 100)

	sb.Reset()
	err := run(benchArgs("-o", filepath.Join(dir, "BENCH_new.json"), "-baseline", base, wl), &sb)
	if err == nil {
		t.Fatalf("gate passed against doctored baseline:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "perf gate failed") {
		t.Errorf("error = %v, want a perf-gate failure", err)
	}
	out := sb.String()
	for _, want := range []string{"PERF GATE FAILED", "slow", "classify/appendixA"} {
		if !strings.Contains(out, want) {
			t.Errorf("regression table missing %q:\n%s", want, out)
		}
	}
}

// doctorBaseline multiplies every refs/s figure in a BENCH json by factor.
func doctorBaseline(t *testing.T, path string, factor float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep perfbench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Workloads {
		rep.Workloads[i].RefsPerSec *= factor
	}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestBenchUnknownWorkload: a bad -workloads value is an error that names
// the offender.
func TestBenchUnknownWorkload(t *testing.T) {
	var sb strings.Builder
	err := run(benchArgs("-o", filepath.Join(t.TempDir(), "b.json"), "-workloads", "no/such"), &sb)
	if err == nil || !strings.Contains(err.Error(), "no/such") {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
}

// TestBenchMissingBaselineFile: gating against a nonexistent baseline is a
// load error, not a silent pass.
func TestBenchMissingBaselineFile(t *testing.T) {
	var sb strings.Builder
	err := run(benchArgs("-o", filepath.Join(t.TempDir(), "b.json"),
		"-baseline", "/nonexistent/BENCH.json", "-workloads", "classify/appendixA"), &sb)
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("err = %v, want baseline load error", err)
	}
}

// TestBenchList: -list renders the registry without running anything.
func TestBenchList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"bench", "-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"classify/appendixA", "schedules/all7", "pinned"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("bench -list missing %q:\n%s", want, sb.String())
		}
	}
}

// TestBenchGateExitCode: through the exitCode mapping, a gate failure is a
// plain error (1), not a forced drain or interrupt.
func TestBenchGateExitCode(t *testing.T) {
	if got := exitCode(&perfGateError{failures: 2}); got != exitErr {
		t.Fatalf("exitCode(perfGateError) = %d, want %d", got, exitErr)
	}
}
