package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (metrics_test.go keeps the two in step); layer and moves
// are the map a reader needs and the contract's schema has no room for.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that is a regression
	layer  string  // per-layer only
	moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them, and none is ever 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_geomean_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "stream_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// perLayer is the traced run's output. A layer that does nothing on a
// workload reports 0 there — that is the "should not move" prediction.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	// Each row is "name unit"; a leading "+" marks higher-is-better.
	add := func(layer, moves string, rows ...string) {
		for _, r := range rows {
			better := "lower"
			if strings.HasPrefix(r, "+") {
				better, r = "higher", r[1:]
			}
			name, unit, _ := strings.Cut(r, " ")
			defs = append(defs, metricDef{name: layer + "." + name, unit: unit, better: better, layer: layer, moves: moves})
		}
	}
	add("tpch", "setup_s (all)",
		"generate_ms ms", "register_ms ms", "dataset_mb MB")
	add("sql", "query_geomean_ms (serve hit classes), throughput_qps (serve); <= 3 % of stream_ms (power); setup_s (cluster)",
		"parse_us us", "plan_us us", "plan_share ratio", "plan_allocs count", "distribute_us us")
	add("plan", "stream_ms, query_geomean_ms (power, spill); miss classes (serve); not the serve hit classes",
		"scan_ms ms", "gather_ms ms", "join_build_ms ms", "join_probe_ms ms", "join_partition_ms ms",
		"group_ms ms", "group_partition_ms ms", "sort_ms ms", "fused_ms ms", "other_ms ms",
		"scan_ns_per_tuple ns", "join_build_ns_per_tuple ns", "join_probe_ns_per_tuple ns",
		"group_ns_per_update ns", "gather_ns_per_byte ns", "fingerprint_us us")
	add("exec", "hardware.sim_pi_ms exactly (power, spill)",
		"tuples_scanned count", "seq_mb MB", "random_accesses count", "cache_random_accesses count",
		"hash_build_tuples count", "hash_probe_tuples count", "agg_updates count", "materialized_mb MB",
		"partition_mb MB", "merge_mb MB", "int_ops count", "float_ops count", "max_hash_mb MB", "peak_live_mb MB")
	add("colstore", "peak_rss_mb, setup_s (all)",
		"resident_mb MB", "rss_over_resident ratio")
	for q := 1; q <= 22; q++ {
		add("engine", "stream_ms (power, spill, cluster)", fmt.Sprintf("q%02d_ms ms", q))
	}
	add("engine", "stream_ms, peak_rss_mb (power)",
		"run_share ratio", "slowest_query_share ratio", "alloc_mb_per_pass MB", "allocs_per_pass count",
		"gc_cycles_per_pass count", "gc_pause_ms_per_pass ms", "fused_over_vector ratio", "+workers1_over_workersN ratio")
	add("spill", "stream_ms, hardware.sim_pi_ms (spill only; 0 on power, serve, cluster)",
		"write_mb_per_pass MB", "read_mb_per_pass MB", "partition_ms ms", "probe_ms ms", "+write_mb_s MB/s",
		"queries_spilled count", "slowdown ratio", "leaked_files count")
	add("serve", "throughput_qps, query_geomean_ms, stream_ms (serve only)",
		"hit_p50_ms ms", "miss_p50_ms ms", "miss_p95_ms ms", "+cache_hit_ratio ratio", "+requests count",
		"failed count", "+admitted count", "rejected count", "sql_plan_us_p50 us", "runplan_hit_us_p50 us",
		"runplan_miss_ms_p50 ms", "miss_overhead_ms_p50 ms", "http_overhead_us_p50 us")
	add("cluster", "stream_ms, query_geomean_ms, hardware.sim_pi_ms (cluster only)",
		"load_ms ms", "wire_kb_per_pass KB", "node_ms ms", "merge_ms ms", "exchange_self_ms ms",
		"overhead_ratio ratio", "redispatches count", "sim_node_ms ms", "sim_network_ms ms", "sim_merge_ms ms")
	add("hardware", "the paper's Table II/III number; a host-only speed-up leaves it identical",
		"sim_pi_ms ms", "sim_cpu_ms ms", "sim_mem_seq_ms ms", "sim_mem_rand_ms ms", "sim_mem_cache_ms ms",
		"sim_partition_ms ms", "sim_merge_ms ms", "sim_swap_ms ms", "sim_spill_ms ms",
		"host_over_sim_geomean ratio", "+rank_corr ratio")
	add("obs", "stream_ms of a traced run only",
		"trace_overhead_pct %", "spans_per_pass count", "+self_time_coverage ratio")
	return defs
}

// metrics is one run's output, by metric name.
type metrics map[string]float64

// complete returns m restricted to defs, with 0 for every metric the
// workload did not set — a layer it does not exercise.
func (m metrics) complete(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		out[d.name] = m[d.name]
	}
	return out
}
