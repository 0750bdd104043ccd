package main

import "strings"

// spanMetric maps a span name of the daemon's per-cycle timeline to the
// per-layer metric its duration feeds.
var spanMetric = map[string]string{
	"demand_update":      "daemon.demand_update_ms",
	"journal":            "daemon.journal_ms",
	"publish":            "daemon.publish_ms",
	"snapshot":           "daemon.snapshot_ms",
	"inventory_snapshot": "control.inventory_snapshot_ms",
	"build_problem":      "control.build_problem_ms",
	"extract":            "control.extract_ms",
	"forecast":           "forecast.step_ms",
	"explain":            "core.explain_ms",
	"apply":              "scheduler.apply_ms",
	"solve":              "core.solve_ms",
}

// planSpans are the stages of one Planner.PlanTraced call; the interval
// they cover together with the sharded solve's spans is control.plan_ms
// (the stages nest — extract contains explain — so they are not summed).
var planSpans = map[string]bool{
	"inventory_snapshot": true, "forecast": true, "build_problem": true,
	"solve": true, "extract": true, "explain": true,
}

// spanLayerMetrics turns the traced run's cycle spans into per-layer
// metrics: for every harness "cycle" span, the imported child spans are
// summed by name, and each metric is the median over cycles. Span names
// the table does not know are skipped. daemon.cycle_self_ms is the
// cycle span's self time — what no imported child accounts for — so
// the children's cover plus the self time equals the cycle span.
func spanLayerMetrics(out *outcome, spans []span) {
	self := selfTimes(spans)
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	series := make(map[string][]float64)
	cycles := 0
	for _, c := range spans {
		if c.Name != "cycle" {
			continue
		}
		kids := children[c.ID]
		if len(kids) == 0 {
			continue // the daemon no longer retained this cycle's timeline
		}
		cycles++
		sums := make(map[string]float64)
		var zoneMax float64
		var shardLo, shardHi, planLo, planHi int64
		for _, k := range kids {
			ms := float64(k.EndNs-k.StartNs) / 1e6
			if metric, known := spanMetric[k.Name]; known {
				sums[metric] += ms
			}
			sharded := k.Name == "shard_rebalance" || k.Name == "merge_verify" || strings.HasPrefix(k.Name, "zone_solve:")
			if planSpans[k.Name] || sharded {
				if planLo == 0 || k.StartNs < planLo {
					planLo = k.StartNs
				}
				planHi = max(planHi, k.EndNs)
			}
			if sharded {
				if shardLo == 0 || k.StartNs < shardLo {
					shardLo = k.StartNs
				}
				shardHi = max(shardHi, k.EndNs)
			}
			if strings.HasPrefix(k.Name, "zone_solve:") {
				zoneMax = max(zoneMax, ms)
			}
		}
		if shardHi > shardLo {
			envelope := float64(shardHi-shardLo) / 1e6
			sums["shard.solve_ms"] = envelope
			sums["shard.zone_solve_max_ms"] = zoneMax
		}
		sums["control.plan_ms"] = float64(planHi-planLo) / 1e6
		sums["daemon.cycle_self_ms"] = float64(self[c.ID]) / 1e6
		sums["daemon.cycle_span_ms"] = float64(c.EndNs-c.StartNs) / 1e6
		for metric, ms := range sums {
			series[metric] = append(series[metric], ms)
		}
	}
	for metric, xs := range series {
		// A span absent from some cycles (the snapshot runs every 64th)
		// is reported over the cycles that had it.
		out.set(metric, median(xs), len(xs), "median over traced cycles")
	}
	out.set("trace.spans", float64(len(spans)), cycles, "spans recorded; samples = cycles with an imported timeline")
}
