package daemon

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dynplace/internal/core"
	"dynplace/internal/forecast"
	"dynplace/internal/obs"
	"dynplace/internal/router"
	"dynplace/internal/scheduler"
)

// cycleSpanNames is the closed set of control-cycle span names the
// daemon records latency histograms for. Every histogram is
// pre-registered at construction so runCycle — which runs under d.mu —
// never touches a registry lock; per-zone solve spans (zone_solve:N)
// are dynamic by zone and tracked by the dynplace_zone_solve
// histograms instead.
var cycleSpanNames = []string{
	"demand_update",
	"inventory_snapshot",
	"forecast",
	"build_problem",
	"solve",
	"shard_rebalance",
	"merge_verify",
	"extract",
	"explain",
	"apply",
	"publish",
	"journal",
	"snapshot",
}

// obsState bundles the daemon's observability surface: the Prometheus
// registry behind GET /v1/metrics/prom, the cycle tracer behind
// GET /v1/debug/cycles, and every pre-registered hot-path instrument.
// Collect-time callbacks registered here may take d.mu (the encoder
// invokes them with no registry locks held); everything touched from
// inside runCycle is a plain atomic instrument.
type obsState struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	cycleDur    *obs.Histogram
	spanDur     map[string]*obs.Histogram
	zoneDur     []*obs.Histogram
	cycleErrors *obs.Counter
	slowCycles  *obs.Counter

	// explainOutcomes and explainDenials are the flight recorder's
	// counter families, pre-registered over the closed core.Outcomes
	// and core.Bindings sets so runCycle increments without touching a
	// registry lock.
	explainOutcomes map[string]*obs.Counter
	explainDenials  map[string]*obs.Counter
	slowCaptures    *obs.Counter

	walAppend *obs.Histogram
	walFsync  *obs.Histogram
	snapWrite *obs.Histogram

	// slowCycleSeconds is the wall-clock duration past which a cycle
	// logs a warning (<= 0 disables).
	slowCycleSeconds float64

	// profileArmed and lastProfile implement slow-cycle CPU profile
	// auto-capture: a slow cycle arms the profiler, the next cycle runs
	// under it, and the resulting profile is retained for the debug
	// bundle. Both are mutated only from runCycle/recordCycleObs, which
	// run under d.mu.
	profileArmed bool
	lastProfile  *capturedProfile
}

// Latency bucket layouts, all in seconds.
var (
	// cycleBuckets spans 0.5ms–16s: sub-millisecond no-op cycles up to
	// multi-second flat solves on large clusters.
	cycleBuckets = obs.ExpBuckets(0.0005, 2, 16)
	// spanBuckets spans 50µs–1.6s for individual pipeline stages.
	spanBuckets = obs.ExpBuckets(0.00005, 2, 16)
	// ioBuckets spans 20µs–10s for WAL append/fsync and snapshot
	// writes (fsync tail latencies on loaded disks reach seconds).
	ioBuckets = obs.ExpBuckets(0.00002, 3, 12)
	// httpBuckets spans 100µs–1.6s for API handler latencies.
	httpBuckets = obs.ExpBuckets(0.0001, 2, 15)
)

// newObsState builds the registry, registers every metric family and
// wires the collect-time callbacks. It must run after the planner,
// router and store exist; d.mu is not yet shared at that point.
func (d *Daemon) newObsState(shards int, traceCycles int) *obsState {
	reg := obs.NewRegistry()
	o := &obsState{
		reg:     reg,
		tracer:  obs.NewTracer(traceCycles),
		spanDur: make(map[string]*obs.Histogram, len(cycleSpanNames)),
	}

	// --- control cycle ---
	o.cycleDur = reg.Histogram("dynplace_cycle_duration_seconds",
		"Wall-clock duration of each control cycle.", cycleBuckets)
	for _, span := range cycleSpanNames {
		o.spanDur[span] = reg.Histogram("dynplace_cycle_span_duration_seconds",
			"Wall-clock duration of one control-cycle pipeline stage.",
			spanBuckets, "span", span)
	}
	o.zoneDur = make([]*obs.Histogram, shards)
	for s := range o.zoneDur {
		o.zoneDur[s] = reg.Histogram("dynplace_zone_solve_duration_seconds",
			"Wall-clock duration of one zone's placement solve.",
			spanBuckets, "zone", strconv.Itoa(s))
	}
	o.cycleErrors = reg.Counter("dynplace_cycle_errors_total",
		"Control cycles whose planning failed.")
	o.slowCycles = reg.Counter("dynplace_slow_cycles_total",
		"Control cycles slower than the slow-cycle warning threshold.")
	o.slowCaptures = reg.Counter("dynplace_slow_cycle_captures_total",
		"CPU profiles captured by the slow-cycle auto-capture.")

	// --- decision-provenance flight recorder ---
	o.explainOutcomes = make(map[string]*obs.Counter, len(core.Outcomes))
	for _, outcome := range core.Outcomes {
		o.explainOutcomes[outcome] = reg.Counter("dynplace_explain_decisions_total",
			"Per-application placement decisions explained, by outcome.",
			"outcome", outcome)
	}
	o.explainDenials = make(map[string]*obs.Counter, len(core.Bindings))
	for _, binding := range core.Bindings {
		o.explainDenials[binding] = reg.Counter("dynplace_explain_denials_total",
			"Denied applications explained, by binding constraint.",
			"binding", binding)
	}
	reg.GaugeFunc("dynplace_explain_records",
		"Cycle explanations retained in the flight recorder.",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.explain.Len())
		})

	// --- build identity ---
	reg.Gauge("dynplace_build_info",
		"Constant 1; the build version and Go runtime ride as labels.",
		"version", BuildVersion(), "go_version", runtime.Version()).Set(1)
	reg.CounterFunc("dynplace_cycles_total",
		"Control cycles run (lifetime, across restarts).",
		func() float64 { return float64(d.cycles.Load()) })
	reg.CounterFunc("dynplace_infeasible_cycles_total",
		"Control cycles whose placement problem had no feasible solution.",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.planner.InfeasibleCycles())
		})
	for _, action := range []string{
		scheduler.ActionStart, scheduler.ActionSuspend, scheduler.ActionResume,
		scheduler.ActionMigrate, scheduler.ActionRescue,
	} {
		action := action
		reg.CounterFunc("dynplace_actions_total",
			"Batch placement actions applied, by kind.",
			func() float64 {
				d.mu.Lock()
				defer d.mu.Unlock()
				return float64(d.planner.Actions().Get(action))
			}, "action", action)
	}

	// --- placement gauges (lock-free: last published snapshot) ---
	snapGauge := func(name, help string, fn func(*PlacementSnapshot) float64) {
		reg.GaugeFunc(name, help, func() float64 { return fn(d.Placement()) })
	}
	snapGauge("dynplace_web_apps", "Registered web applications as of the last cycle.",
		func(s *PlacementSnapshot) float64 { return float64(len(s.Web)) })
	snapGauge("dynplace_live_jobs", "Live (submitted, incomplete) batch jobs as of the last cycle.",
		func(s *PlacementSnapshot) float64 { return float64(len(s.Jobs)) })
	snapGauge("dynplace_active_nodes", "Inventory nodes offering capacity.",
		func(s *PlacementSnapshot) float64 { return float64(countActive(s.Nodes)) })
	snapGauge("dynplace_infeasible_streak", "Consecutive infeasible cycles (0 when healthy).",
		func(s *PlacementSnapshot) float64 { return float64(s.InfeasibleStreak) })
	snapGauge("dynplace_omega_g_mhz", "Aggregate CPU devoted to batch work (the paper's omega_G).",
		func(s *PlacementSnapshot) float64 { return s.OmegaGMHz })
	snapGauge("dynplace_inventory_version", "Node-inventory version the last cycle planned against.",
		func(s *PlacementSnapshot) float64 { return float64(s.InventoryVersion) })
	snapGauge("dynplace_shard_imbalance", "Zone utilization spread (max minus min) of the last sharded cycle.",
		func(s *PlacementSnapshot) float64 { _, imb := shardSpread(s.Shards); return imb })
	snapGauge("dynplace_max_shard_utilization", "Hottest zone's utilization in the last sharded cycle.",
		func(s *PlacementSnapshot) float64 { m, _ := shardSpread(s.Shards); return m })
	reg.GaugeSampler("dynplace_web_utility",
		"Predicted relative performance per web application.",
		func() []obs.Sample {
			snap := d.Placement()
			out := make([]obs.Sample, 0, len(snap.Web))
			for _, w := range snap.Web {
				out = append(out, obs.Sample{Labels: []string{"app", w.Name}, Value: w.Utility})
			}
			return out
		})
	reg.GaugeSampler("dynplace_web_alloc_mhz",
		"CPU allocation per web application.",
		func() []obs.Sample {
			snap := d.Placement()
			out := make([]obs.Sample, 0, len(snap.Web))
			for _, w := range snap.Web {
				out = append(out, obs.Sample{Labels: []string{"app", w.Name}, Value: w.AllocMHz})
			}
			return out
		})

	// --- demand forecaster (empty when forecast-driven control is off) ---
	forecastSamples := func(value func(forecast.Stats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			d.mu.Lock()
			defer d.mu.Unlock()
			if !d.planner.ForecastEnabled() {
				return nil
			}
			apps := d.planner.WebApps()
			names := make([]string, 0, len(apps))
			for _, w := range apps {
				names = append(names, w.Name)
			}
			sort.Strings(names)
			out := make([]obs.Sample, 0, len(names))
			for _, name := range names {
				st, ok := d.planner.ForecastStats(name)
				if !ok {
					continue
				}
				out = append(out, obs.Sample{Labels: []string{"app", name}, Value: value(st)})
			}
			return out
		}
	}
	reg.GaugeSampler("dynplace_forecast_abs_error",
		"Absolute error of the last scored demand prediction, per application (req/s).",
		forecastSamples(func(s forecast.Stats) float64 { return s.LastAbsError }))
	reg.GaugeSampler("dynplace_forecast_mape",
		"Mean absolute percentage error of scored demand predictions, per application.",
		forecastSamples(func(s forecast.Stats) float64 { return s.MAPE }))
	reg.GaugeSampler("dynplace_forecast_predicted_rate",
		"Latest predicted next-cycle arrival rate, per application (req/s).",
		forecastSamples(func(s forecast.Stats) float64 { return s.PendingPredicted }))

	// --- request router ---
	// Per-app dispatch series. routerSamples snapshots once per scrape
	// per family and renders one stably ordered sample per application.
	routerSamples := func(value func(router.Stats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			stats := d.router.Snapshot()
			names := make([]string, 0, len(stats))
			for name := range stats {
				names = append(names, name)
			}
			sort.Strings(names)
			out := make([]obs.Sample, 0, len(names))
			for _, name := range names {
				out = append(out, obs.Sample{
					Labels: []string{"app", name},
					Value:  value(stats[name]),
				})
			}
			return out
		}
	}
	reg.GaugeSampler("dynplace_dispatch_queue_depth",
		"Current overload-protection queue occupancy per application.",
		routerSamples(func(s router.Stats) float64 { return float64(s.QueueDepth) }))
	reg.CounterSampler("dynplace_dispatch_queued_total",
		"Requests that ever entered the overload-protection queue, per application.",
		routerSamples(func(s router.Stats) float64 { return float64(s.QueuedTotal) }))
	reg.CounterSampler("dynplace_dispatch_requests_total",
		"Requests dispatched to instances, per application.",
		routerSamples(func(s router.Stats) float64 { return float64(s.Dispatched) }))
	reg.CounterSampler("dynplace_dispatch_rejected_total",
		"Requests dropped by overload protection, per application.",
		routerSamples(func(s router.Stats) float64 { return float64(s.Rejected) }))

	// --- durability ---
	o.walAppend = reg.Histogram("dynplace_wal_append_duration_seconds",
		"End-to-end latency of one WAL append (write + fsync).", ioBuckets)
	o.walFsync = reg.Histogram("dynplace_wal_fsync_duration_seconds",
		"Latency of the WAL fsync alone.", ioBuckets)
	o.snapWrite = reg.Histogram("dynplace_store_snapshot_duration_seconds",
		"Latency of one compacting snapshot write.", ioBuckets)
	reg.CounterFunc("dynplace_wal_errors_total",
		"Journal appends that failed (durability degraded when nonzero).",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.walErrors)
		})
	reg.CounterFunc("dynplace_restarts_total",
		"Recoveries from the durable state store.",
		func() float64 { return float64(d.restarts.Load()) })
	reg.GaugeFunc("dynplace_replay_duration_seconds",
		"Wall-clock duration of the last WAL replay.",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.replayDuration.Seconds()
		})
	reg.GaugeFunc("dynplace_replay_records",
		"WAL records applied by the last recovery.",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.replayedRecords)
		})
	reg.GaugeFunc("dynplace_recovering",
		"1 while boot-time recovery is pending or WAL replay is running.",
		func() float64 {
			if !d.recovered.Load() || d.recovering.Load() {
				return 1
			}
			return 0
		})
	// The poison reason rides as a label so a poisoned WAL is
	// alertable (dynplace_store_poisoned > 0) and diagnosable from the
	// scrape alone. Reads are lock-free (store.FailedReason).
	reg.GaugeSampler("dynplace_store_poisoned",
		"1 when the durable store refused further writes; the reason label carries why.",
		func() []obs.Sample {
			if d.store == nil {
				return []obs.Sample{{Value: 0}}
			}
			if reason := d.store.FailedReason(); reason != "" {
				return []obs.Sample{{Labels: []string{"reason", reason}, Value: 1}}
			}
			return []obs.Sample{{Value: 0}}
		})

	if d.store != nil {
		d.store.Instrument(o.walAppend, o.walFsync, o.snapWrite)
	}
	return o
}

// httpInstrument is the pre-registered instrument pair for one API
// route.
type httpInstrument struct {
	dur     *obs.Histogram
	byClass [6]*obs.Counter // index = status/100 - 1 (1xx..5xx; 0 spare)
}

// newHTTPInstrument registers the latency histogram for one route and
// shares the per-class response counters.
func (o *obsState) newHTTPInstrument(route string, classes *[6]*obs.Counter) httpInstrument {
	return httpInstrument{
		dur: o.reg.Histogram("dynplace_http_request_duration_seconds",
			"API handler latency by route.", httpBuckets, "route", route),
		byClass: *classes,
	}
}

// responseClasses registers the shared dynplace_http_responses_total
// counters, one per status class.
func (o *obsState) responseClasses() [6]*obs.Counter {
	var out [6]*obs.Counter
	for i := 1; i <= 5; i++ {
		out[i] = o.reg.Counter("dynplace_http_responses_total",
			"API responses by status class.", "class", fmt.Sprintf("%dxx", i))
	}
	return out
}

// recordCycleObs folds one finished cycle trace into the histograms
// and slow-cycle accounting. Runs under d.mu; touches only atomic
// instruments.
func (d *Daemon) recordCycleObs(view obs.TraceView, failed bool) {
	o := d.obs
	if o == nil {
		return
	}
	seconds := float64(view.DurationMicros) / 1e6
	o.cycleDur.Observe(seconds)
	for _, span := range view.Spans {
		if h, ok := o.spanDur[span.Name]; ok {
			h.Observe(float64(span.DurationMicros) / 1e6)
			continue
		}
		// zone_solve:N spans land in the per-zone histogram family.
		if zone, found := strings.CutPrefix(span.Name, "zone_solve:"); found {
			if s, err := strconv.Atoi(zone); err == nil && s >= 0 && s < len(o.zoneDur) {
				o.zoneDur[s].Observe(float64(span.DurationMicros) / 1e6)
			}
		}
	}
	if failed {
		o.cycleErrors.Inc()
	}
	if o.slowCycleSeconds > 0 && seconds > o.slowCycleSeconds {
		o.slowCycles.Inc()
		// Arm the profiler instead of only logging: the next cycle runs
		// under CPU profiling and the capture lands in the debug bundle,
		// so a slow cycle no longer has to be reproduced by hand with
		// pprof attached. A slow streak keeps re-arming, which keeps the
		// retained profile tracking the most recent slow cycle.
		o.profileArmed = true
		d.cfg.Warnf("cycle %d: slow cycle: %.3fs (threshold %.3fs); capturing a CPU profile of the next cycle",
			view.Cycle, seconds, o.slowCycleSeconds)
	}
}
