package main

import (
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestCatalogueMatchesBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
}

// metrics holds measured values by metric name.
type metrics map[string]float64

// e2eCatalogue is what an untraced run reports: metrics a user of the
// system sees, measured on every workload.
var e2eCatalogue = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_heap_mb", "MB"},
}

// artifacts are the regen -quick artifacts in regen's order; each has an
// experiment.<name>_s driver-call time.
var artifacts = []string{
	"table2", "table1", "fig5", "fig6a", "fig6b", "large", "traffic", "finite",
	"compare", "penalty", "hotspots", "phases", "ablate_cu", "ablate_wbwi", "ablate_sector",
}

// layers are the modules the traced pass attributes self time to, plus the
// benchmark's own unattributed remainder.
var layers = []string{
	"experiment", "sweep", "core", "coherence", "finite", "timing",
	"trace", "tracestore", "workload", "serve", "unattributed",
}

// jobKindNames name the serve-mix job kinds (see loadgen.go).
var jobKindNames = []string{"classify_lu32", "classify_water16", "fig5_lu32", "upload_lu32"}

// layerCatalogue is what a traced run reports. Layers a workload bypasses
// read 0.
var layerCatalogue = func() []metricDef {
	c := []metricDef{
		{"workload.gen_s", "s"},
		{"workload.refs", "count"},
		{"tracestore.pack_s", "s"},
		{"tracestore.bytes_per_ref", "B/ref"},
		{"tracestore.segments_read", "count"},
		{"tracestore.segment_read_s", "s"},
		{"tracestore.decode_ns_per_ref", "ns/ref"},
		{"trace.drive.refs", "count"},
		{"trace.drive.batches", "count"},
		{"trace.collect.refs", "count"},
		{"core.refs", "count"},
		{"core.fused_resolve_s", "s"},
		{"core.fused_level_sweep_s", "s"},
		{"coherence.refs", "count"},
		{"coherence.misses", "count"},
		{"coherence.replay_s", "s"},
		{"finite.refs", "count"},
		{"finite.replay_s", "s"},
		{"timing.refs", "count"},
		{"timing.replay_s", "s"},
		{"sweep.cells", "count"},
		{"sweep.busy_s", "s"},
		{"sweep.cell_wait_s", "s"},
		{"sweep.utilization", "fraction"},
		{"sweep.cache.hits", "count"},
		{"sweep.cache.misses", "count"},
		{"sweep.cache.streamed", "count"},
		{"sweep.cache.hit_ratio", "fraction"},
		{"input.ref_configs", "count"},
		{"report.bytes", "B"},
	}
	for _, a := range artifacts {
		c = append(c, metricDef{"experiment." + a + "_s", "s"})
	}
	c = append(c,
		metricDef{"serve.service_ms.p50", "ms"},
		metricDef{"serve.service_ms.p95", "ms"},
	)
	for _, k := range jobKindNames {
		c = append(c, metricDef{"serve.service_ms." + k, "ms"})
	}
	c = append(c,
		metricDef{"serve.client_ms.p50", "ms"},
		metricDef{"serve.jobs.admitted", "count"},
		metricDef{"serve.jobs.rejected", "count"},
		metricDef{"serve.jobs.completed", "count"},
		metricDef{"serve.jobs.failed", "count"},
		metricDef{"serve.jobs.retries", "count"},
		metricDef{"p50_ms.low", "ms"},
		metricDef{"p95_ms.low", "ms"},
		metricDef{"p50_ms.high", "ms"},
		metricDef{"p95_ms.high", "ms"},
		metricDef{"max_jobs_per_s", "jobs/s"},
		metricDef{"failed_share", "fraction"},
		metricDef{"loadgen.lateness_ms.p95", "ms"},
		metricDef{"loadgen.samples.low", "count"},
		metricDef{"loadgen.samples.high", "count"},
		metricDef{"loadgen.connections", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"obs.trace_overhead", "fraction"},
		metricDef{"obs.spans_lost", "count"},
	)
	for _, l := range layers {
		c = append(c, metricDef{"self_s." + l, "s"})
	}
	for _, l := range layers {
		c = append(c, metricDef{"share." + l, "fraction"})
	}
	return c
}()

// newLayerMetrics starts every per-layer metric at 0, the reading of a
// layer the workload bypasses.
func newLayerMetrics() metrics {
	m := make(metrics, len(layerCatalogue))
	for _, d := range layerCatalogue {
		m[d.name] = 0
	}
	return m
}

// fromAttribution fills the span-derived metrics of the traced pass.
func (m metrics) fromAttribution(at *attribution, wall float64) {
	m["core.fused_resolve_s"] = at.opSelf["fused.resolve"]
	m["core.fused_level_sweep_s"] = at.opSelf["fused.level_sweep"]
	m["coherence.replay_s"] = at.self["coherence"]
	m["finite.replay_s"] = at.self["finite"]
	m["timing.replay_s"] = at.self["timing"]
	m["tracestore.segment_read_s"] = at.opDur["tracestore.segment_io"]
	m["sweep.busy_s"] = at.opDur["sweep.cell"]
	m["sweep.cell_wait_s"] = at.opDur["sweep.cell_wait"]
	if wall > 0 {
		m["sweep.utilization"] = at.opDur["sweep.cell"] / (hostProcs * wall)
	}
	total := at.total()
	for _, l := range layers {
		m["self_s."+l] = at.self[l]
		if total > 0 {
			m["share."+l] = at.self[l] / total
		}
	}
}

// fromCounters fills the counter-derived metrics of the traced pass from the
// program's obs delta and the process counters.
func (m metrics) fromCounters(d obs.RunReport, pc passCounters) {
	c := func(name string) float64 { return float64(counterOf(d, name)) }
	m["tracestore.segments_read"] = c(obs.NameStoreSegments)
	m["trace.drive.refs"] = c(obs.NameDriveRefs)
	m["trace.drive.batches"] = c(obs.NameDriveBatches)
	m["trace.collect.refs"] = c(obs.NameCollectRefs)
	m["core.refs"] = c(obs.NameOursRefs) + c(obs.NameEggersRefs) + c(obs.NameTorrellasRefs)
	m["coherence.refs"] = c(obs.NameCoherenceRefs)
	m["coherence.misses"] = c(obs.NameCoherenceMiss)
	m["finite.refs"] = c(obs.NameFiniteRefs)
	m["timing.refs"] = c(obs.NameTimingRefs)
	m["sweep.cells"] = c(obs.NameCellsFinished)
	hits, misses, streamed := c(obs.NameCacheHits), c(obs.NameCacheMisses), c(obs.NameCacheStreamed)
	m["sweep.cache.hits"] = hits
	m["sweep.cache.misses"] = misses
	m["sweep.cache.streamed"] = streamed
	if n := hits + misses + streamed; n > 0 {
		m["sweep.cache.hit_ratio"] = hits / n
	}
	m["input.ref_configs"] = float64(pc.refConfigs)
	m["runtime.alloc_mb"] = float64(pc.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(pc.gcCycles)
}
