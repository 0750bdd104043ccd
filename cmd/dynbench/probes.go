package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/daemon"
	"dynplace/internal/flow"
	"dynplace/internal/forecast"
	"dynplace/internal/obs"
	"dynplace/internal/router"
	"dynplace/internal/shard"
	"dynplace/internal/store"
	"dynplace/internal/txn"
)

// A probe times a direct call to one layer's public function on an
// input of the workload's shape. Probes run in the traced run only,
// after the measurement window, so they never touch an end-to-end
// number.

// probeShape is the size of the inputs a workload hands its layers.
type probeShape struct {
	nodes, shards, webApps, jobs int
	cycleSeconds                 float64
	// webRate is every web app's arrival rate in the probe problem.
	webRate float64
}

// storeSample is what the store probes replay: the snapshot and the
// last cycle record a workload's daemon actually wrote.
type storeSample struct {
	loadMs float64
	state  *store.State
	cycle  *store.Record
}

// sampleStore times Open+Load on a state directory as a daemon left it
// and keeps the snapshot and the newest cycle record for the probes.
func sampleStore(dir string) (*storeSample, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	state, recs, err := st.Load()
	loadMs := time.Since(t0).Seconds() * 1e3
	cerr := st.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	s := &storeSample{loadMs: loadMs, state: state}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Op == store.OpCycle {
			s.cycle = &recs[i]
			break
		}
	}
	return s, nil
}

// timeReps calls fn until budget is spent (at least min times, at most
// max) and returns the per-call durations in the given unit.
func timeReps(budget time.Duration, minReps, maxReps int, unit time.Duration, fn func()) []float64 {
	var out []float64
	begin := time.Now()
	for len(out) < minReps || (len(out) < maxReps && time.Since(begin) < budget) {
		t0 := time.Now()
		fn()
		out = append(out, float64(time.Since(t0))/float64(unit))
	}
	return out
}

// perOp times n back-to-back calls and returns nanoseconds per call,
// for operations too short to time one by one.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeProblem builds a mid-run placement problem of the given size in
// the manner of the scale sweep's generator: web applications
// replicated across three nodes, three quarters of the jobs placed with
// random progress (two to a node, which fits beside the web instances
// at any cluster size), the rest queued.
func probeProblem(seed int64, nodes, webApps, jobs int, cycleSeconds, webRate float64) (*core.Problem, error) {
	cl, err := cluster.Uniform(nodes, nodeCPUMHz, nodeMemMB)
	if err != nil {
		return nil, err
	}
	gen := newInputs(seed)
	rng := rand.New(rand.NewSource(seed + 1)) // progress of the placed jobs
	apps := make([]*core.Application, 0, webApps+jobs)
	current := core.NewPlacement(webApps + jobs)
	for i := 0; i < webApps; i++ {
		spec := webSpec(i, webRate)
		web := &txn.App{
			Name: spec.Name, ArrivalRate: spec.ArrivalRate, DemandPerRequest: spec.DemandPerRequest,
			BaseLatency: spec.BaseLatency, GoalResponseTime: spec.GoalResponseTime,
			MaxPowerMHz: spec.MaxPowerMHz, MemoryMB: spec.MemoryMB,
		}
		apps = append(apps, &core.Application{Name: web.Name, Kind: core.KindWeb, Web: web})
		for k := 0; k < min(3, nodes); k++ {
			current.Add(i, cluster.NodeID((i*3+k)%nodes))
		}
	}
	now := 50 * cycleSeconds
	placed := min(jobs*3/4, 2*nodes)
	for j := 0; j < jobs; j++ {
		js := gen.scaleJob(fmt.Sprintf("job-%d", j), cycleSeconds)
		spec := batch.SingleStage(js.Name, js.WorkMcycles, js.MaxSpeedMHz, js.MemoryMB, now, now+js.Deadline)
		app := &core.Application{Name: spec.Name, Kind: core.KindBatch, Job: spec}
		if j < placed {
			app.Done = rng.Float64() * js.WorkMcycles * 0.6
			app.Started = true
			current.Add(webApps+j, cluster.NodeID((j/2)%nodes))
		}
		apps = append(apps, app)
	}
	return &core.Problem{
		Cluster: cl, Now: now, Cycle: cycleSeconds, Apps: apps, Current: current,
		Costs: cluster.DefaultCostModel(),
	}, nil
}

// runProbes fills in the probe-sourced per-layer metrics. d is a
// daemon of the workload's shape with a published placement (its router
// tables and exposition are what the router and obs probes read); ss is
// the workload's own store sample, nil when it has none.
func runProbes(e *env, out *outcome, sh probeShape, d *daemon.Daemon, ss *storeSample) error {
	// The solver sees one zone's share of a sharded cluster.
	zoneNodes, zoneJobs := sh.nodes, sh.jobs
	if sh.shards > 1 {
		zoneNodes, zoneJobs = sh.nodes/sh.shards, sh.jobs/sh.shards
	}
	p, err := probeProblem(e.seed, zoneNodes, sh.webApps, zoneJobs, sh.cycleSeconds, sh.webRate)
	if err != nil {
		return err
	}

	var res *core.Result
	type probe struct {
		name string
		run  func() error
	}
	probes := []probe{
		{"core.Optimize", func() error {
			if res, err = core.Optimize(p); err != nil { // warm-up, and the result the next probes explain
				return err
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			if _, err := core.Optimize(p); err != nil {
				return err
			}
			runtime.ReadMemStats(&ms1)
			times := timeReps(2*time.Second, 1, 20, time.Millisecond, func() { _, _ = core.Optimize(p) })
			out.set("core.optimize_ms", median(times), len(times), fmt.Sprintf("%d nodes, %d apps", zoneNodes, len(p.Apps)))
			out.set("core.candidates_per_solve", float64(res.CandidatesEvaluated), 1, "")
			out.set("core.optimize_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, 1, "")
			out.set("core.optimize_allocs", float64(ms1.Mallocs-ms0.Mallocs), 1, "")
			return nil
		}},
		{"core.Evaluate", func() error {
			if _, err := core.Evaluate(p, res.Placement); err != nil {
				return err
			}
			times := timeReps(500*time.Millisecond, 5, 500, time.Microsecond, func() { _, _ = core.Evaluate(p, res.Placement) })
			out.set("core.evaluate_us", median(times), len(times), "the adopted placement")
			return nil
		}},
		{"core.Explain", func() error {
			times := timeReps(500*time.Millisecond, 3, 200, time.Millisecond, func() { core.Explain(p, res, nil) })
			out.set("core.explain_probe_ms", median(times), len(times), "")
			return nil
		}},

		{"flow.MaxFlow", func() error {
			// The web-routing network of allocator.routeWeb: source → apps →
			// hosting nodes → sink.
			hosts := min(3, zoneNodes)
			n := 2 + sh.webApps + sh.webApps*hosts
			build := func() *flow.Network {
				g := flow.NewNetwork(n)
				for i := 0; i < sh.webApps; i++ {
					_, _ = g.AddEdge(0, 1+i, 30000)
					for k := 0; k < hosts; k++ {
						v := 1 + sh.webApps + i*hosts + k
						_, _ = g.AddEdge(1+i, v, 30000)
						_, _ = g.AddEdge(v, n-1, 9000)
					}
				}
				return g
			}
			if _, err := build().MaxFlow(0, n-1); err != nil {
				return err
			}
			const reps = 20000
			g := build()
			out.set("flow.maxflow_with_build_us", perOp(reps, func(int) { _, _ = build().MaxFlow(0, n-1) })/1e3, reps, "")
			out.set("flow.maxflow_us", perOp(reps, func(int) { g.Reset(); _, _ = g.MaxFlow(0, n-1) })/1e3, reps, "network reset, not rebuilt")
			return nil
		}},

		{"batch.Hypothetical", func() error {
			var states []batch.State
			for _, a := range p.Apps {
				if a.Kind == core.KindBatch {
					states = append(states, batch.State{Spec: a.Job, Done: a.Done})
				}
			}
			if len(states) == 0 {
				return nil
			}
			h, err := batch.NewHypothetical(p.Now, states, nil)
			if err != nil {
				return err
			}
			omega := h.MaxAggregateDemand() / 2
			const reps = 2000
			out.set("batch.hypothetical_new_us", perOp(reps, func(int) { _, _ = batch.NewHypothetical(p.Now, states, nil) })/1e3, reps, fmt.Sprintf("%d jobs", len(states)))
			out.set("batch.hypothetical_predict_us", perOp(reps, func(int) { h.Predict(omega) })/1e3, reps, "")
			return nil
		}},

		{"shard.Verify", func() error {
			if sh.shards == 0 {
				return nil
			}
			// The full-size problem with its carried placement evaluated,
			// not solved: Verify's cost depends on the problem's size, and
			// a coordinator solve of a synthetic 10 000-node problem took
			// anywhere from 0.7 to 10 s.
			full, err := probeProblem(e.seed, sh.nodes, sh.webApps, sh.jobs, sh.cycleSeconds, sh.webRate)
			if err != nil {
				return err
			}
			ev, err := core.Evaluate(full, full.Current)
			if err != nil {
				return err
			}
			carried := &core.Result{Placement: full.Current, Eval: ev}
			vt := timeReps(500*time.Millisecond, 1, 20, time.Millisecond, func() { err = shard.Verify(full, carried) })
			out.set("shard.verify_ms", median(vt), len(vt), fmt.Sprintf("%d nodes, %d apps", sh.nodes, len(full.Apps)))
			return err
		}},

		{"forecast.Observe", func() error {
			set := forecast.NewSet(forecast.Config{SeasonSeconds: 14400})
			const reps = 200000
			out.set("forecast.observe_ns", perOp(reps, func(i int) { set.Observe("web-0", float64(i)*30, 100+float64(i%7)) }), reps, "")
			return nil
		}},

		{"store", func() error {
			dir, err := os.MkdirTemp(e.workDir, "probe-store-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(dir)
			if err != nil {
				return err
			}
			defer st.Close()
			var appendErr error
			times := timeReps(time.Second, 50, 400, time.Microsecond, func() {
				if _, err := st.Append(store.Record{Op: store.OpSetLoad, Name: "web-0", Rate: 123.4}); err != nil {
					appendErr = err
				}
			})
			if appendErr != nil {
				return appendErr
			}
			asc := sorted(times)
			out.set("store.append_p50_us", percentile(asc, 50), len(asc), "set-load record, fsync included")
			out.set("store.append_p99_us", percentile(asc, 99), len(asc), "")
			if ss == nil {
				return nil
			}
			out.set("store.load_ms", ss.loadMs, 1, "Open+Load of the workload's state directory")
			if ss.cycle != nil {
				ct := timeReps(time.Second, 3, 50, time.Microsecond, func() {
					if _, err := st.Append(*ss.cycle); err != nil {
						appendErr = err
					}
				})
				out.set("store.append_cycle_record_us", median(ct), len(ct), "the workload's newest cycle record")
			}
			if ss.state != nil {
				wt := timeReps(time.Second, 3, 20, time.Millisecond, func() {
					if err := st.WriteSnapshot(ss.state); err != nil {
						appendErr = err
					}
				})
				out.set("store.snapshot_write_ms", median(wt), len(wt), "the workload's snapshot")
			}
			return appendErr
		}},

		{"router", func() error {
			r := d.Router()
			apps := r.Apps()
			if len(apps) == 0 {
				return nil
			}
			tables := make(map[string][]router.Instance, len(apps))
			for _, app := range apps {
				tables[app], _ = r.Instances(app)
			}
			app := apps[0]
			const reps = 200000
			out.set("router.dispatch_ns", perOp(reps, func(i int) { _, _ = r.Dispatch(app, float64(i%1000)/1000) }), reps, "")
			out.set("router.dispatch_balanced_ns", perOp(reps, func(int) { _, _ = r.DispatchBalanced(app) }), reps, "")
			const batchN = 4096
			bt := timeReps(300*time.Millisecond, 5, 500, time.Nanosecond, func() { _, _ = r.DispatchBatch(app, batchN) })
			out.set("router.dispatch_batch_ns_per_req", median(bt)/batchN, len(bt), "")
			pt := timeReps(200*time.Millisecond, 5, 2000, time.Microsecond, func() { r.Publish(tables) })
			out.set("router.publish_us", median(pt), len(pt), fmt.Sprintf("%d apps", len(apps)))
			if _, reported := out.metrics["router.rejected_pct"]; !reported {
				var dispatched, rejected int
				for _, s := range r.Snapshot() {
					dispatched += s.Dispatched
					rejected += s.Rejected
				}
				out.set("router.rejected_pct", 100*float64(rejected)/float64(max(1, dispatched+rejected)), dispatched+rejected, "")
			}
			return nil
		}},

		{"obs", func() error {
			a := &handlerAPI{h: d.Handler()}
			var bytesOut int
			var scrapeErr error
			times := timeReps(500*time.Millisecond, 5, 200, time.Millisecond, func() {
				resp, err := mustOK(a, http.MethodGet, "/v1/metrics/prom", nil)
				if err != nil {
					scrapeErr = err
				}
				bytesOut = len(resp)
			})
			if scrapeErr != nil {
				return scrapeErr
			}
			out.set("obs.scrape_encode_ms", median(times), len(times), "GET /v1/metrics/prom through the handler")
			out.set("obs.scrape_bytes", float64(bytesOut), 1, "uncompressed")
			h := obs.NewHistogram(obs.ExpBuckets(1e-6, 2, 24))
			const reps = 1000000
			out.set("obs.histogram_observe_ns", perOp(reps, func(i int) { h.Observe(float64(i%1000) * 1e-6) }), reps, "")
			return nil
		}},
	}
	for _, p := range probes {
		sp := e.rec.begin(0, "probe:"+p.name)
		err := p.run()
		e.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}
