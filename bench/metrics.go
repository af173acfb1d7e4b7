package main

// The metric dictionary: every metric the suite reports, with its unit,
// direction and regression bound. README.md explains what moves each one;
// BENCHMARK.json repeats the subset every workload reports and, where it
// lists a metric, its bound is the one the comparator applies.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the largest relative worsening of the median that still
	// counts as unchanged; floor is an absolute minimum for that margin in
	// the metric's unit. A zero bound and floor mean the value must not
	// worsen at all (exact counts and failure ratios).
	bound float64
	floor float64
}

// Time bounds are 25%: on a small machine shared with other work, the same
// unit of work drifts by 10–20% over minutes (see README.md), and a bound
// tighter than that drift would flag noise as regressions.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.002},
	{"wall_s", "s", "lower", 0.25, 0},
	{"cpu_s", "s", "lower", 0.25, 0},
	{"peak_rss_mb", "MB", "lower", 0.25, 0},
	{"events_per_s", "events/s", "higher", 0.25, 0},
	{"record_s", "s", "lower", 0.25, 0},
	{"trace_bytes_per_event", "B/event", "lower", 0, 0},
	{"job_p50_ms.lo", "ms", "lower", 0.25, 0},
	{"job_p98_ms.lo", "ms", "lower", 0.25, 0},
	{"job_p50_ms.hi", "ms", "lower", 0.25, 0},
	{"job_p98_ms.hi", "ms", "lower", 0.25, 0},
	{"goodput_rps.hi", "jobs/s", "higher", 0.10, 0},
	{"fail_ratio", "ratio", "lower", 0, 0},
}

// benchmarkE2E are the end-to-end metrics every workload reports, in the
// order of BENCHMARK.json. wall_s is the time a user waits for one unit of the
// workload's work: a paper pass, a sweep over the program set, or one
// service job from its due time to its report.
var benchmarkE2E = []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}

// workloadE2E lists each workload's end-to-end metrics.
var workloadE2E = map[string][]string{
	"paper":        {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_ratio"},
	"analyze-live": {"setup_s", "wall_s", "events_per_s", "cpu_s", "peak_rss_mb", "fail_ratio"},
	"analyze-vtr2": {"setup_s", "wall_s", "events_per_s", "record_s", "cpu_s", "peak_rss_mb", "trace_bytes_per_event", "fail_ratio"},
	"service": {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "job_p50_ms.lo", "job_p98_ms.lo",
		"job_p50_ms.hi", "job_p98_ms.hi", "goodput_rps.hi", "fail_ratio"},
}

var layerDefs = []metricDef{
	{name: "parser.ms", unit: "ms", better: "lower"},
	{name: "sema.ms", unit: "ms", better: "lower"},
	{name: "lower.ms", unit: "ms", better: "lower"},
	{name: "interp.plan_ms", unit: "ms", better: "lower"},
	{name: "interp.plain_ms", unit: "ms", better: "lower"},
	{name: "interp.traced_ms", unit: "ms", better: "lower"},
	{name: "interp.steps", unit: "count", better: "lower"},
	{name: "interp.steps_per_s", unit: "1/s", better: "higher"},
	{name: "interp.tracing_factor", unit: "ratio", better: "lower"},
	{name: "trace.capture_ms", unit: "ms", better: "lower"},
	{name: "trace.capture_mb", unit: "MB", better: "lower"},
	{name: "trace.split_ms", unit: "ms", better: "lower"},
	{name: "trace.regions", unit: "count", better: "lower"},
	{name: "trace.region_events", unit: "count", better: "lower"},
	{name: "trace.encode_ms", unit: "ms", better: "lower"},
	{name: "trace.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.bytes_per_event", unit: "B/event", better: "lower"},
	{name: "trace.decode_ms", unit: "ms", better: "lower"},
	{name: "trace.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.blocks_read", unit: "count", better: "lower"},
	{name: "core.sweep_ms", unit: "ms", better: "lower"},
	{name: "core.sweep_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.finish_ms", unit: "ms", better: "lower"},
	{name: "core.candidates", unit: "count", better: "lower"},
	{name: "core.partitions", unit: "count", better: "lower"},
	{name: "core.kernel_peak_kb", unit: "KB", better: "lower"},
	{name: "core.graph_ms", unit: "ms", better: "lower"},
	{name: "ddg.build_ms", unit: "ms", better: "lower"},
	{name: "ddg.nodes", unit: "count", better: "lower"},
	{name: "ddg.ns_per_node", unit: "ns", better: "lower"},
	{name: "baseline.ms", unit: "ms", better: "lower"},
	{name: "staticvec.ms", unit: "ms", better: "lower"},
	{name: "profile.ms", unit: "ms", better: "lower"},
	{name: "simd.ms", unit: "ms", better: "lower"},
	{name: "report.render_ms", unit: "ms", better: "lower"},
	{name: "report.bytes", unit: "B", better: "lower"},
	{name: "server.submit_ms.p50", unit: "ms", better: "lower"},
	{name: "server.submit_ms.p98", unit: "ms", better: "lower"},
	{name: "server.queue_wait_ms.p50", unit: "ms", better: "lower"},
	{name: "server.run_ms.p50", unit: "ms", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.refused", unit: "count", better: "lower"},
	{name: "client.gen_lag_ms.p98", unit: "ms", better: "lower"},
	{name: "traced.wall_ms", unit: "ms", better: "lower"},
	{name: "traced.unattributed_pct", unit: "%", better: "lower"},
	{name: "traced.cpu_ratio", unit: "ratio", better: "lower"},
}

// benchmarkLayers are the per-layer metrics every workload's traced run
// produces with a nonzero value, in the order of BENCHMARK.json. Layers on
// one workload's path only (the DDG and baselines on paper, the trace codec
// on analyze-vtr2, admission on service) stay in the suite's own results.
var benchmarkLayers = []string{
	"parser.ms", "sema.ms", "lower.ms",
	"interp.plan_ms", "interp.plain_ms", "interp.traced_ms", "interp.steps", "interp.steps_per_s", "interp.tracing_factor",
	"trace.capture_ms", "trace.capture_mb", "trace.split_ms", "trace.regions", "trace.region_events",
	"core.sweep_ms", "core.sweep_ns_per_event", "core.finish_ms", "core.candidates", "core.partitions", "core.kernel_peak_kb",
	"report.render_ms", "report.bytes",
	"traced.wall_ms", "traced.unattributed_pct", "traced.cpu_ratio",
}

// maxUnattributedPct is the traced run's limit on driver wall time not
// covered by a timed layer call.
const maxUnattributedPct = 5.0

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
