package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of the benchmark contract. BENCHMARK.json at the
// repository root repeats these tables for the driver; a unit test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // how far the metric may worsen: a share of the baseline, or with Abs in the metric's unit
	Abs    bool
}

// boundText renders the bound for the report tables.
func (d metricDef) boundText() string {
	if d.Abs {
		return fmt.Sprintf("±%g %s", d.Bound, d.Unit)
	}
	return fmt.Sprintf("±%g%%", d.Bound*100)
}

// endToEnd lists what a user of the daemon sees; it is BENCHMARK.json's
// end_to_end list. Every workload reports every one of them: the
// in-process workloads reach the daemon through Daemon.Handler() without
// a network, http_mixed through loopback.
//
// The bounds on timings are the contract's maximum because the reference
// box is a shared one whose speed moves by a fifth to a third for
// minutes at a time: ten runs of identical, deterministic work spread
// (first to third quartile) over 8–18 % of their median in cycles_per_s.
// README.md gives the spreads each bound was set against, and says why
// the cycle's median and tail, the mutation-ack latency and the route
// latencies are in the per-layer list instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "route_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "web_rt_goal_ratio", Unit: "ratio", Better: "lower", Bound: 0.15},
	{Name: "job_utility_mean", Unit: "utility", Better: "higher", Bound: 0.15},
}

// outputs are counts and qualities of what the daemon decided. Every
// run prints them and -compare holds them to their bounds, but they are
// not in BENCHMARK.json: the driver wants an end-to-end metric that is
// never 0 and bounded by a share of its median, and these are 0 on a
// healthy run (fail_pct, often placement_changes), can be negative
// (web_utility_min) or are bounded in their own unit. The in-process
// workloads report all four, and the same values on every run of a seed;
// http_mixed, whose cycles run on the wall clock, reports fail_pct.
var outputs = []metricDef{
	{Name: "web_utility_min", Unit: "utility", Better: "higher", Bound: 0.01, Abs: true},
	{Name: "jobs_ontime_pct", Unit: "%", Better: "higher", Bound: 0.5, Abs: true},
	{Name: "placement_changes", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "fail_pct", Unit: "%", Better: "lower", Bound: 0, Abs: true},
}

// perLayer lists the single-layer metrics of the traced run. The prefix
// names the module. A workload that does not exercise a layer (shard.*
// on a flat solver, http.* in process) reports 0 for it.
var perLayer = []metricDef{
	{Name: "core.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.candidates_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.optimize_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.optimize_allocs", Unit: "count", Better: "lower"},
	{Name: "core.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "core.explain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.explain_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.maxflow_us", Unit: "us", Better: "lower"},
	{Name: "flow.maxflow_with_build_us", Unit: "us", Better: "lower"},
	{Name: "batch.hypothetical_new_us", Unit: "us", Better: "lower"},
	{Name: "batch.hypothetical_predict_us", Unit: "us", Better: "lower"},
	{Name: "shard.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.zone_solve_max_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.moves_per_cycle", Unit: "count", Better: "lower"},
	{Name: "shard.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "control.inventory_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "control.build_problem_ms", Unit: "ms", Better: "lower"},
	{Name: "control.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "control.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.step_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "forecast.mape", Unit: "ratio", Better: "lower"},
	{Name: "forecast.naive_mape", Unit: "ratio", Better: "lower"},
	{Name: "scheduler.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "scheduler.actions_per_cycle", Unit: "count", Better: "lower"},
	{Name: "store.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.append_cycle_record_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_cycle", Unit: "bytes", Better: "lower"},
	{Name: "store.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "router.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "router.dispatch_balanced_ns", Unit: "ns", Better: "lower"},
	{Name: "router.dispatch_batch_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "router.publish_us", Unit: "us", Better: "lower"},
	{Name: "router.rejected_pct", Unit: "%", Better: "lower"},
	{Name: "obs.scrape_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_bytes", Unit: "bytes", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "daemon.demand_update_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.journal_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.cycle_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.cycle_self_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.cycle_span_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.placement_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.placement_bytes", Unit: "bytes", Better: "lower"},
	{Name: "daemon.handler_route_us", Unit: "us", Better: "lower"},
	{Name: "daemon.handler_load_us", Unit: "us", Better: "lower"},
	{Name: "daemon.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.replayed_records", Unit: "count", Better: "lower"},
	{Name: "daemon.alloc_mb_per_cycle", Unit: "MB", Better: "lower"},
	{Name: "daemon.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "daemon.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "http.route_p50_us", Unit: "us", Better: "lower"},
	{Name: "http.route_p99_us", Unit: "us", Better: "lower"},
	{Name: "http.route_batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "http.batch_dispatch_mops", Unit: "Mops/s", Better: "higher"},
	{Name: "http.scrape_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.route_under_write_p99_us", Unit: "us", Better: "lower"},
	{Name: "http.mutate_rps", Unit: "1/s", Better: "higher"},
	{Name: "http.mutate_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.mutate_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.throughput", Unit: "1/s", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes; Note says
	// how (which percentile, how many slices).
	Samples int    `json:"samples,omitempty"`
	Note    string `json:"note,omitempty"`
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample, or 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the mean of the two middle values for even counts, so a
// five-slice phase reports its middle slice and a two-value set is not
// biased toward either.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// tailPercent picks the tail percentile for n samples: the highest
// whole percentile, capped at 99, that still has at least ten samples
// beyond it. Below twenty samples no percentile above the median
// qualifies and the median itself is returned as the tail.
func tailPercent(n int) int {
	if n < 20 {
		return 50
	}
	p := 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	return p
}

// tail applies tailPercent to a sample.
func tail(xs []float64) (v float64, pct int) {
	pct = tailPercent(len(xs))
	if pct == 50 {
		return median(xs), pct
	}
	return percentile(sorted(xs), float64(pct)), pct
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
