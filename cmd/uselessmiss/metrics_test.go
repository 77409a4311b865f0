package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runWithMetrics invokes run() with a -metrics file appended, returning
// the rendered report bytes and the parsed metrics JSON.
func runWithMetrics(t *testing.T, args ...string) (string, obs.RunReport) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	var sb strings.Builder
	if err := run(append(args, "-metrics", path), &sb); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing metrics JSON: %v", err)
	}
	if rep.Schema != obs.ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, obs.ReportSchema)
	}
	return sb.String(), rep
}

// TestMetricsDeterministicAcrossParallelism: the full deterministic
// section of the run report — every counter and histogram — is
// byte-identical at -j 1 and -j 8 for the same inputs, and so are the
// rendered output and the report shape (the metric names of every section,
// timings included: no metric appears or vanishes because of scheduling).
// Worker scheduling must only move timing values.
func TestMetricsDeterministicAcrossParallelism(t *testing.T) {
	rep := checkMetricsAcrossParallelism(t, "fig5", "-quick", "-workloads", "JACOBI")
	if rep.Deterministic.Counters[obs.NameOursRefs] == 0 {
		t.Error("fig5 run recorded no classified references")
	}
	if rep.Deterministic.Counters[obs.NameCellsFinished] == 0 {
		t.Error("fig5 run recorded no finished sweep cells")
	}
}

// TestMetricsShapeMatrix holds the experiments whose report carries other
// counters than fig5's to the same contract: the protocol grid (fig6,
// coherence counters) and Table 1 (all three classifiers off one pass per
// cell, plus cache hits from the cells that share a trace).
func TestMetricsShapeMatrix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		work []string // counters the run must record
	}{
		{[]string{"fig6", "-quick", "-workloads", "JACOBI"},
			[]string{obs.NameCoherenceRefs, obs.NameCoherenceMiss}},
		{[]string{"table1", "-quick", "-workloads", "JACOBI"},
			[]string{obs.NameOursRefs, obs.NameEggersRefs, obs.NameTorrellasRefs, obs.NameCacheHits}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			rep := checkMetricsAcrossParallelism(t, tc.args...)
			for _, name := range append(tc.work, obs.NameCellsFinished) {
				if rep.Deterministic.Counters[name] == 0 {
					t.Errorf("%s run recorded no %s", tc.args[0], name)
				}
			}
		})
	}
}

// checkMetricsAcrossParallelism runs args at -j 1 and -j 8 and fails the
// test unless the rendered output, the deterministic section (byte for
// byte) and the report shape agree. It returns the -j 1 report.
func checkMetricsAcrossParallelism(t *testing.T, args ...string) obs.RunReport {
	t.Helper()
	out1, rep1 := runWithMetrics(t, append(args, "-j", "1")...)
	out8, rep8 := runWithMetrics(t, append(args, "-j", "8")...)
	if out1 != out8 {
		t.Error("rendered output differs between -j 1 and -j 8")
	}
	det1, err := json.MarshalIndent(rep1.Deterministic, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	det8, err := json.MarshalIndent(rep8.Deterministic, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(det1) != string(det8) {
		t.Errorf("deterministic section differs between -j 1 and -j 8:\n-j 1: %s\n-j 8: %s", det1, det8)
	}
	if s1, s8 := reportShape(rep1), reportShape(rep8); s1 != s8 {
		t.Errorf("report shape differs between -j 1 and -j 8:\n%s\n---\n%s", s1, s8)
	}
	return rep1
}

// reportShape serializes just the metric names of every report section, one
// per line, sorted — the report's key structure with the values erased.
func reportShape(rep obs.RunReport) string {
	var names []string
	add := func(section, name string) { names = append(names, section+"/"+name) }
	for name := range rep.Deterministic.Counters {
		add("det.counters", name)
	}
	for name := range rep.Deterministic.Histograms {
		add("det.histograms", name)
	}
	for name := range rep.Timings.Counters {
		add("tim.counters", name)
	}
	for name := range rep.Timings.Gauges {
		add("tim.gauges", name)
	}
	for name := range rep.Timings.Histograms {
		add("tim.histograms", name)
	}
	sort.Strings(names)
	return strings.Join(names, "\n")
}

// TestMetricsFileIsDeterministic: two identical runs write byte-identical
// metrics files (the timings section is excluded by comparing only the
// deterministic section's serialized form).
func TestMetricsFileIsDeterministic(t *testing.T) {
	serialize := func(rep obs.RunReport) string {
		data, err := json.MarshalIndent(rep.Deterministic, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	_, repA := runWithMetrics(t, "fig5", "-quick", "-workloads", "JACOBI")
	_, repB := runWithMetrics(t, "fig5", "-quick", "-workloads", "JACOBI")
	if a, b := serialize(repA), serialize(repB); a != b {
		t.Errorf("deterministic sections of identical runs differ:\n%s\n---\n%s", a, b)
	}
}

// TestMetricsReportDelta: sequential runs in one process report only their
// own work — the second run's counters must not include the first's.
func TestMetricsReportDelta(t *testing.T) {
	_, rep1 := runWithMetrics(t, "fig5", "-quick", "-workloads", "JACOBI")
	_, rep2 := runWithMetrics(t, "fig5", "-quick", "-workloads", "JACOBI")
	r1 := rep1.Deterministic.Counters[obs.NameOursRefs]
	r2 := rep2.Deterministic.Counters[obs.NameOursRefs]
	if r1 == 0 || r1 != r2 {
		t.Errorf("per-run deltas wrong: run1 %d refs, run2 %d refs (must be equal and nonzero)", r1, r2)
	}
}

// TestLogLevelFlagRejectsGarbage: a bad -log value is a flag error, not a
// silent default.
func TestLogLevelFlagRejectsGarbage(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"fig5", "-quick", "-workloads", "JACOBI", "-log", "shouty"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("run with -log shouty = %v, want an unknown-log-level error", err)
	}
}

// TestRetiredObsFlags: the experiment subcommands and regen have neither
// the interval snapshot stream nor the batch debug server; either retired
// flag is a flag error before any work runs.
func TestRetiredObsFlags(t *testing.T) {
	dir := t.TempDir()
	for _, base := range [][]string{
		{"fig5", "-quick", "-workloads", "JACOBI", "-blocks", "64"},
		{"regen", "-quick", "-o", dir},
	} {
		for _, retired := range [][]string{
			{"-metrics-interval", "1s"},
			{"-debug-addr", "127.0.0.1:0"},
		} {
			args := append(append([]string{}, base...), retired...)
			var sb strings.Builder
			if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("run(%v) = %v, want a flag error", args, err)
			}
		}
	}
}

// TestTimingMetricsPresent: the timings section carries the run gauges.
func TestTimingMetricsPresent(t *testing.T) {
	_, rep := runWithMetrics(t, "fig5", "-quick", "-workloads", "JACOBI")
	for _, name := range []string{obs.NameRunWallSeconds, obs.NameRunRefsPerSec} {
		if _, ok := rep.Timings.Gauges[name]; !ok {
			t.Errorf("timings section missing gauge %s (have %v)", name, gaugeNames(rep))
		}
	}
	if rep.Timings.Gauges[obs.NameRunWallSeconds] <= 0 {
		t.Error("run.wall_seconds gauge not positive")
	}
}

func gaugeNames(rep obs.RunReport) []string {
	names := make([]string, 0, len(rep.Timings.Gauges))
	for name := range rep.Timings.Gauges {
		names = append(names, name)
	}
	return names
}
