package main

import "strings"

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the program sees. Every workload
// reports all of them; README.md gives each workload's reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics are the per-layer metrics other than the CPU shares, in
// report order. A workload that does not exercise a layer reports 0.
var layerMetrics = []metricDef{
	// The same problem with one worker, from the one-worker passes of a
	// traced run; both move more between runs than an end-to-end bound
	// allows on this hardware.
	{"wall_serial_s", "s", "lower"},
	{"speedup", "x", "higher"},
	// Counters read after plain passes.
	{"sim.events", "count", "lower"},
	{"sim.span_jumps", "count", "higher"},
	{"sim.heap_hw", "count", "lower"},
	{"sim.freelist_miss_ratio", "ratio", "lower"},
	{"engine.passes", "count", "lower"},
	{"engine.passes_elided_ratio", "ratio", "higher"},
	{"engine.backfill_ratio", "ratio", "higher"},
	{"engine.direct_starts", "count", "higher"},
	{"lab.baseline_hit_ratio", "ratio", "higher"},
	{"lab.continual_hit_ratio", "ratio", "higher"},
	{"lab.pool_peak", "count", "higher"},
	{"exp.table2_s", "s", "lower"},
	{"exp.table4_s", "s", "lower"},
	{"exp.table8limited_s", "s", "lower"},
	{"fed.barriers", "count", "lower"},
	{"fed.units", "count", "higher"},
	{"fed.steals", "count", "higher"},
	{"advisor.cache_hit_ratio", "ratio", "higher"},
	{"advisor.coalesce_ratio", "ratio", "higher"},
	{"advisor.shed_frac", "ratio", "lower"},
	{"advisor.degraded_frac", "ratio", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	// The open-loop ladder of plain passes, pooled over the run.
	{"lat_p50_ms.r10", "ms", "lower"},
	{"lat_p95_ms.r10", "ms", "lower"},
	{"lat_p50_ms.r40", "ms", "lower"},
	{"lat_p95_ms.r40", "ms", "lower"},
	{"fail_frac.r40", "ratio", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"loadgen.late_ms.p99", "ms", "lower"},
	{"loadgen.late_ms.max", "ms", "lower"},
	// Timers at public boundaries, traced pass only.
	{"workload.next_s", "s", "lower"},
	{"core.ctrl_s", "s", "lower"},
	{"core.ctrl_calls", "count", "lower"},
	{"engine.self_s", "s", "lower"},
	{"fed.advance_s", "s", "lower"},
	{"fed.barrier_s", "s", "lower"},
	{"fed.skew", "x", "lower"},
	// advisord's own request spans, traced pass only.
	{"advisor.admission_us.p50", "us", "lower"},
	{"advisor.cache_us.p50", "us", "lower"},
	{"advisor.coalesce_us.p50", "us", "lower"},
	{"advisor.plan_wait_ms.p50", "ms", "lower"},
	{"advisor.plan_wait_ms.p95", "ms", "lower"},
	{"advisor.render_ms.p50", "ms", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// perLayerMetrics is every per-layer metric: the list above plus one CPU
// share per profile bucket.
func perLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, p := range cpuPackages {
		out = append(out, metricDef{Name: "cpu_share." + p, Unit: "ratio", Better: "lower"})
	}
	return out
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	if strings.HasPrefix(name, "cpu_share.") {
		return "ratio"
	}
	for _, defs := range [][]metricDef{endToEnd, layerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
