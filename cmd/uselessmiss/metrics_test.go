package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
// section of the run report — every counter and histogram — is identical
// at -j 1 and -j 8 for the same inputs, and so is the rendered output.
// Worker scheduling must only move timings.
func TestMetricsDeterministicAcrossParallelism(t *testing.T) {
	base := []string{"fig5", "-quick", "-workloads", "JACOBI"}
	out1, rep1 := runWithMetrics(t, append(base, "-j", "1")...)
	out8, rep8 := runWithMetrics(t, append(base, "-j", "8")...)
	if out1 != out8 {
		t.Error("rendered output differs between -j 1 and -j 8")
	}
	if !reflect.DeepEqual(rep1.Deterministic, rep8.Deterministic) {
		t.Errorf("deterministic metrics differ between -j 1 and -j 8:\n-j 1: %+v\n-j 8: %+v",
			rep1.Deterministic, rep8.Deterministic)
	}
	if rep1.Deterministic.Counters[obs.NameOursRefs] == 0 {
		t.Error("fig5 run recorded no classified references")
	}
	if rep1.Deterministic.Counters[obs.NameCellsFinished] == 0 {
		t.Error("fig5 run recorded no finished sweep cells")
	}
}

// shardInvariantNames is the subset of deterministic counters whose totals
// must not move when a cell's replay is block-sharded: work totals
// (classified references, protocol references and misses, sweep cells,
// cache effectiveness). Replay-level counters (trace.drive.*) are excluded
// on purpose — every shard keeps every sync and phase reference, so
// per-shard replay legitimately re-delivers them.
var shardInvariantNames = []string{
	obs.NameOursRefs,
	obs.NameEggersRefs,
	obs.NameTorrellasRefs,
	obs.NameCoherenceRefs,
	obs.NameCoherenceMiss,
	obs.NameFiniteRefs,
	obs.NameCellsPlanned,
	obs.NameCellsStarted,
	obs.NameCellsFinished,
	obs.NameCacheHits,
	obs.NameCacheMisses,
	obs.NameCacheStreamed,
}

// TestMetricsInvariantAcrossShards: the work-total counters are identical
// whether each cell replays serially or block-sharded 8 ways, for both a
// classifier experiment (fig5) and a protocol experiment (fig6).
func TestMetricsInvariantAcrossShards(t *testing.T) {
	for _, tc := range [][]string{
		{"fig5", "-quick", "-workloads", "JACOBI"},
		{"fig6", "-quick", "-workloads", "JACOBI"},
	} {
		t.Run(tc[0], func(t *testing.T) {
			out1, rep1 := runWithMetrics(t, append(tc, "-shards", "1")...)
			out8, rep8 := runWithMetrics(t, append(tc, "-shards", "8")...)
			if out1 != out8 {
				t.Error("rendered output differs between -shards 1 and -shards 8")
			}
			for _, name := range shardInvariantNames {
				v1 := rep1.Deterministic.Counters[name]
				v8 := rep8.Deterministic.Counters[name]
				if v1 != v8 {
					t.Errorf("%s: %d at -shards 1, %d at -shards 8", name, v1, v8)
				}
			}
			refs := rep1.Deterministic.Counters[obs.NameOursRefs] +
				rep1.Deterministic.Counters[obs.NameCoherenceRefs]
			if refs == 0 {
				t.Error("run recorded no classified or simulated references")
			}
		})
	}
}

// TestMetricsShapeMatrix runs the full -j {1,8} × -shards {1,8} matrix and
// pins the run-report contract end to end:
//
//   - the rendered report is byte-identical across all four combinations;
//   - the report *shape* — the set of metric names in every section — is
//     identical across all four (no counter appears or vanishes because of
//     scheduling or sharding);
//   - the shard-invariant work counters are identical across all four;
//   - at -shards 1 the deterministic section is byte-identical across -j.
//     At -shards 8 it is not required to be: shardsPerCell divides the
//     goroutine budget by the worker count, so -j changes the *effective*
//     per-cell shard count and with it the replay counters (every shard
//     re-delivers the sync and phase references), which is exactly why the
//     invariance contract is stated over the work totals.
func TestMetricsShapeMatrix(t *testing.T) {
	base := []string{"fig5", "-quick", "-workloads", "JACOBI"}
	type combo struct{ j, shards string }
	combos := []combo{{"1", "1"}, {"8", "1"}, {"1", "8"}, {"8", "8"}}

	outputs := make(map[combo]string)
	detBytes := make(map[combo]string)
	shapes := make(map[combo]string)
	counters := make(map[combo]map[string]uint64)
	for _, c := range combos {
		out, rep := runWithMetrics(t, append(base, "-j", c.j, "-shards", c.shards)...)
		outputs[c] = out
		data, err := json.MarshalIndent(rep.Deterministic, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		detBytes[c] = string(data)
		shapes[c] = reportShape(rep)
		counters[c] = rep.Deterministic.Counters
	}

	ref := combos[0]
	for _, c := range combos[1:] {
		if outputs[c] != outputs[ref] {
			t.Errorf("rendered output differs between -j %s -shards %s and -j %s -shards %s",
				ref.j, ref.shards, c.j, c.shards)
		}
		if shapes[c] != shapes[ref] {
			t.Errorf("report shape differs between -j %s -shards %s and -j %s -shards %s:\n%s\n---\n%s",
				ref.j, ref.shards, c.j, c.shards, shapes[ref], shapes[c])
		}
		for _, name := range shardInvariantNames {
			if counters[c][name] != counters[ref][name] {
				t.Errorf("%s: %d at -j %s -shards %s, %d at -j %s -shards %s", name,
					counters[ref][name], ref.j, ref.shards, counters[c][name], c.j, c.shards)
			}
		}
	}
	if detBytes[combo{"1", "1"}] != detBytes[combo{"8", "1"}] {
		t.Error("-shards 1: deterministic section differs between -j 1 and -j 8")
	}
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
