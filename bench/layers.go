package main

import (
	"runtime"
	"strings"
)

// opLayers are the layers whose share of the measured operations' time the
// traced run reports. "serve" is the daemon's handler outside the work it
// reports (decode, admission, session lock, encode); "work" is the time the
// daemon reports for the work itself. Time an operation spends outside
// every layer (bench bookkeeping, or on serve-open the client queue and
// loopback) is what trace.coverage_frac leaves out.
var opLayers = []string{"vhdl", "sem", "builder", "alloc", "core", "estimate", "partition", "serve", "work"}

// countMetrics are the per-layer counts and ratios. Each workload measures
// the ones for the layers it exercises; the rest report 0, which means the
// workload bypasses that layer.
var countMetrics = []metric{
	{Name: "core.nodes", Unit: "count"},
	{Name: "core.channels", Unit: "count"},
	{Name: "builder.full_frac", Unit: "frac"},
	{Name: "builder.empty_frac", Unit: "frac"},
	{Name: "builder.changed_mean", Unit: "count"},
	{Name: "builder.dependents_mean", Unit: "count"},
	{Name: "partition.evals_per_op", Unit: "count"},
	{Name: "partition.rounds_mean", Unit: "count"},
	{Name: "partition.legs_killed", Unit: "count"},
	{Name: "partition.legs_respawned", Unit: "count"},
	{Name: "partition.kill_frac", Unit: "frac"},
	{Name: "partition.partial_frac", Unit: "frac"},
	{Name: "partition.cost_vs_greedy", Unit: "ratio"},
	{Name: "serve.queue_depth_max", Unit: "count"},
	{Name: "serve.rejects", Unit: "count"},
	{Name: "serve.checkpoints", Unit: "count"},
	{Name: "serve.store_errors", Unit: "count"},
	{Name: "store.syncs", Unit: "count"},
	{Name: "store.write_kb", Unit: "KB"},
	{Name: "store.renames", Unit: "count"},
	{Name: "loadgen.backlog_max", Unit: "count"},
	{Name: "loadgen.late_frac", Unit: "frac"},
}

// layerMetrics computes every per-layer metric of a traced run from its
// spans, the workload's own counts, and the Go runtime's statistics over
// the traced half. base is the untraced half, for the tracing overhead.
func layerMetrics(sum traceSummary, base, ph *phase, before, after runtime.MemStats) []metric {
	out := []metric{
		m("vhdl.parse_ms", "ms", sum.medianMs("vhdl.Parse")),
		m("vhdl.tokens_per_s", "1/s", sum.rate("vhdl.Parse")),
		m("sem.elaborate_ms", "ms", sum.medianMs("sem.Elaborate")),
		m("builder.build_ms", "ms", sum.medianMs("builder.Build")),
		m("alloc.apply_us", "us", 1000*sum.medianMs("alloc.Apply")),
		m("estimate.report_us", "us", 1000*sum.medianMs("estimate.Report")),
		m("core.compile_ms", "ms", sum.medianMs("core.Compile")),
		m("estimate.deps_ms", "ms", sum.medianMs("estimate.NewDeps")),
	}
	for _, l := range opLayers {
		out = append(out, m(l+".op_frac", "frac", sum.share(l)))
	}
	coverage := 0.0
	if sum.opMs > 0 {
		coverage = sum.coveredMs / sum.opMs
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	perOp := 0.0
	if ph.attempted > 0 {
		perOp = allocMB / float64(ph.attempted)
	}
	out = append(out,
		m("trace.coverage_frac", "frac", coverage),
		m("trace.overhead_frac", "frac", ph.primary()/base.primary()-1),
		m("go.alloc_mb", "MB", allocMB),
		m("go.alloc_mb_per_op", "MB", perOp),
		m("go.gc_cycles", "count", float64(after.NumGC-before.NumGC)),
		m("go.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6),
	)
	have := make(map[string]metric, len(ph.counts))
	for _, c := range ph.counts {
		have[c.Name] = c
	}
	for _, c := range countMetrics {
		if got, ok := have[c.Name]; ok {
			c.Value = got.Value
		}
		out = append(out, c)
	}
	return out
}

// spanDetail reports, without bounds, the span timings of the layers only
// some workloads exercise: the rebuild steps and the search jobs.
func spanDetail(sum traceSummary) []metric {
	var out []metric
	if xs := sum.durMs["builder.Frontend"]; len(xs) > 0 {
		out = append(out, pooledMetric("builder.frontend_ms", "ms", xs, 0.5))
	}
	if xs := sum.durMs["builder.Rebuild"]; len(xs) > 0 {
		out = append(out, pooledMetric("builder.rebuild_p50_ms", "ms", xs, 0.5),
			pooledMetric("builder.rebuild_p99_ms", "ms", xs, 0.99))
	}
	for _, name := range sortedKeys(sum.durMs) {
		if algo, ok := strings.CutPrefix(name, "partition."); ok {
			out = append(out, pooledMetric("partition."+algo+"_job_ms", "ms", sum.durMs[name], 0.5))
		}
	}
	return out
}
