package main

// metricDef names one metric. The tables below are the single source of
// the names the program prints; a test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the checker stack sees, defined so
// that every workload has every one of them and none can read 0. Each is
// measured per repetition (one fresh child process) and reported as the
// median over the repetitions of a run.
//
// A "verdict" is one answer the workload asks the stack for: one HTTP
// request on serve-mix, the whole timed operation everywhere else. The
// latency percentiles are nearest-rank over the verdicts of one
// repetition, so on the seven single-verdict workloads they equal
// wall_s.
//
// The bounds come from the spreads measured on the 2-core reference box
// (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics, measured from outside the
// layers: public counters on results, callbacks, runtime and /proc
// deltas in the child, direct timed calls of exported functions, and
// ratios between a workload and a reference run. A workload that
// bypasses a layer reports 0 for that layer's metrics. README.md maps
// each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "model.apply_cow_ns", Unit: "ns", Better: "lower"},
	{Name: "model.apply_exact_ns", Unit: "ns", Better: "lower"},
	{Name: "model.key_ns", Unit: "ns", Better: "lower"},
	{Name: "model.arena_values", Unit: "count", Better: "lower"},
	{Name: "model.arena_states", Unit: "count", Better: "lower"},

	{Name: "check.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "check.visited", Unit: "count", Better: "higher"},
	{Name: "check.levels", Unit: "count", Better: "lower"},
	{Name: "check.level_max_s", Unit: "s", Better: "lower"},
	{Name: "check.allocs_per_state", Unit: "count", Better: "lower"},
	{Name: "check.alloc_bytes_per_state", Unit: "bytes", Better: "lower"},
	{Name: "check.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "check.cpu_s_per_mstate", Unit: "s", Better: "lower"},
	{Name: "check.scale_2w", Unit: "ratio", Better: "higher"},
	{Name: "check.async_steals", Unit: "count", Better: "lower"},
	{Name: "check.async_quiescence_scans", Unit: "count", Better: "lower"},
	{Name: "check.async_vs_levelsync", Unit: "ratio", Better: "higher"},

	{Name: "store.spill_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "store.spill_bytes_per_state", Unit: "bytes", Better: "lower"},
	{Name: "store.runs_written", Unit: "count", Better: "lower"},
	{Name: "store.runs_merged", Unit: "count", Better: "lower"},
	{Name: "store.prefilter_hits", Unit: "count", Better: "lower"},
	{Name: "store.peak_resident_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.io_write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.io_read_bytes", Unit: "bytes", Better: "lower"},

	{Name: "reduce.states_pruned", Unit: "count", Better: "higher"},
	{Name: "reduce.orbit_hits", Unit: "count", Better: "higher"},
	{Name: "reduce.sleep_skipped", Unit: "count", Better: "higher"},
	{Name: "reduce.pruned_per_visited", Unit: "ratio", Better: "higher"},
	{Name: "reduce.sleep_cost", Unit: "ratio", Better: "lower"},

	{Name: "dist.net_bytes_per_state", Unit: "bytes", Better: "lower"},
	{Name: "dist.batches", Unit: "count", Better: "lower"},
	{Name: "dist.peer_stalls", Unit: "count", Better: "lower"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},
	{Name: "dist.peers_lost", Unit: "count", Better: "lower"},
	{Name: "dist.slowdown", Unit: "ratio", Better: "lower"},

	{Name: "lowerbound.cert_sum_s", Unit: "s", Better: "lower"},
	{Name: "lowerbound.cert_max_s", Unit: "s", Better: "lower"},
	{Name: "lowerbound.certified_total", Unit: "count", Better: "higher"},
	{Name: "lowerbound.find_kdistinct_s", Unit: "s", Better: "lower"},

	{Name: "sweep.cells", Unit: "count", Better: "higher"},
	{Name: "sweep.table1_s", Unit: "s", Better: "lower"},
	{Name: "sweep.overhead_ms_per_cell", Unit: "ms", Better: "lower"},

	{Name: "serve.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_key_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_get_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "serve.admit_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.run_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached", Unit: "count", Better: "higher"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.executed", Unit: "count", Better: "lower"},
	{Name: "serve.refused", Unit: "count", Better: "lower"},
	{Name: "serve.coalesce_ratio", Unit: "ratio", Better: "higher"},

	{Name: "checkpoint.write_overhead", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "checkpoint.restore_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.resume_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.restart_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.resume_vs_restart", Unit: "ratio", Better: "lower"},

	{Name: "bench.failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
