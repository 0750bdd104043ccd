package dynplace_test

// Plain Go benchmarks beside the package tests: the ablations that
// quantify the design choices docs/ARCHITECTURE.md calls out, the two
// solver micro-benchmarks with their work counts, the full-scale
// reactive-vs-forecast replay and one run through the public API. Run
// them with:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's figures and tables render from cmd/mixedsim; the flat
// solve at 500-2 000 nodes is BenchmarkFlatSolve in
// internal/experiments.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dynplace"
	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/experiments"
	"dynplace/internal/scheduler"
	"dynplace/internal/trace"
)

// ---- Ablations ----

// BenchmarkAblationHypotheticalGridVsExact times the paper's sampled-
// grid prediction against exact bisection and reports the utility
// deviation between them.
func BenchmarkAblationHypotheticalGridVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]batch.State, 120)
	for i := range jobs {
		work := 1e6 + rng.Float64()*6e7
		jobs[i] = batch.State{
			Spec: batch.SingleStage(fmt.Sprintf("j%d", i), work,
				1560+rng.Float64()*2340, 4320, 0, 20000+rng.Float64()*50000),
			Done: rng.Float64() * work * 0.8,
		}
	}
	h, err := batch.NewHypothetical(10000, jobs, nil)
	if err != nil {
		b.Fatal(err)
	}
	omegaG := 0.6 * h.MaxAggregateDemand()

	var maxDev float64
	grid := h.Predict(omegaG)
	exact := h.PredictExact(omegaG)
	for i := range grid {
		if d := abs(grid[i].Utility - exact[i].Utility); d > maxDev {
			maxDev = d
		}
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Predict(omegaG)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.PredictExact(omegaG)
		}
	})
	b.ReportMetric(maxDev, "max-utility-deviation")
}

// BenchmarkAblationGridResolution sweeps the sampling-grid size R and
// reports the prediction error against exact bisection.
func BenchmarkAblationGridResolution(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	jobs := make([]batch.State, 80)
	for i := range jobs {
		work := 1e6 + rng.Float64()*4e7
		jobs[i] = batch.State{
			Spec: batch.SingleStage(fmt.Sprintf("j%d", i), work,
				1560+rng.Float64()*2340, 4320, 0, 15000+rng.Float64()*60000),
			Done: rng.Float64() * work * 0.5,
		}
	}
	out := "Ablation — hypothetical grid resolution (error vs exact bisection)\n"
	for _, r := range []int{4, 8, 12, 24, 48} {
		levels := batch.UniformLevels(r, -8)
		h, err := batch.NewHypothetical(5000, jobs, levels)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			omegaG := frac * h.MaxAggregateDemand()
			grid := h.Predict(omegaG)
			exact := h.PredictExact(omegaG)
			for i := range grid {
				if d := abs(grid[i].Utility - exact[i].Utility); d > worst {
					worst = d
				}
			}
		}
		out += fmt.Sprintf("  R=%2d  max |u_grid − u_exact| = %.5f\n", r, worst)
	}
	for i := 0; i < b.N; i++ {
		_ = out
	}
	printOnce(b, out)
}

// BenchmarkAblationPlacementCosts reruns an Experiment Two point with
// the virtualization cost model enabled (the paper excludes costs there)
// to show the effect on goal satisfaction and churn.
func BenchmarkAblationPlacementCosts(b *testing.B) {
	opts := experiments.DefaultExperiment2Options()
	opts.Jobs = 300
	out := "Ablation — placement-action costs (APC, 100 s inter-arrival, 300 jobs)\n"
	for i := 0; i < b.N; i++ {
		out = "Ablation — placement-action costs (APC, 100 s inter-arrival, 300 jobs)\n"
		free, err := experiments.RunExperiment2Cell(opts,
			&scheduler.APC{Costs: cluster.FreeCostModel()}, 100)
		if err != nil {
			b.Fatal(err)
		}
		costed, err := experiments.RunExperiment2Cell(opts,
			&scheduler.APC{Costs: cluster.DefaultCostModel()}, 100)
		if err != nil {
			b.Fatal(err)
		}
		out += fmt.Sprintf("  costs excluded (paper): on-time %.1f%%  changes %d\n",
			100*free.OnTimeRate, free.Changes)
		out += fmt.Sprintf("  costs modeled:          on-time %.1f%%  changes %d\n",
			100*costed.OnTimeRate, costed.Changes)
	}
	printOnce(b, out)
}

// BenchmarkAblationComparisonResolution sweeps the optimizer's utility
// comparison resolution ε: finer resolutions chase smaller gains and
// churn more.
func BenchmarkAblationComparisonResolution(b *testing.B) {
	opts := experiments.DefaultExperiment2Options()
	opts.Jobs = 300
	var out string
	for i := 0; i < b.N; i++ {
		out = "Ablation — utility comparison resolution ε (APC, 100 s inter-arrival)\n"
		for _, eps := range []float64{0.005, 0.02, 0.1} {
			cell, err := experiments.RunExperiment2Cell(opts,
				&scheduler.APC{Costs: cluster.FreeCostModel(), Epsilon: eps}, 100)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  ε=%.3f  on-time %.1f%%  changes %d\n",
				eps, 100*cell.OnTimeRate, cell.Changes)
		}
	}
	printOnce(b, out)
}

// BenchmarkOptimizerCycle times one full placement optimization at
// Experiment One scale (25 nodes, 75 placed + 25 queued jobs). The paper
// reports ≈1.5 s per cycle on 2008 hardware.
func BenchmarkOptimizerCycle(b *testing.B) {
	cl, err := cluster.Uniform(25, 15600, 16384)
	if err != nil {
		b.Fatal(err)
	}
	apps := make([]*core.Application, 100)
	current := core.NewPlacement(len(apps))
	for i := range apps {
		spec := trace.Experiment1Job(fmt.Sprintf("j%d", i), 0)
		apps[i] = &core.Application{
			Name: spec.Name, Kind: core.KindBatch, Job: spec,
			Done: float64(i%30) * 1e6, Started: i < 75,
		}
		if i < 75 {
			current.Add(i, cluster.NodeID(i/3))
		}
	}
	p := &core.Problem{
		Cluster: cl, Now: 30000, Cycle: 600, Apps: apps, Current: current,
		Costs: cluster.DefaultCostModel(),
	}
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		if res, err = core.Optimize(p); err != nil {
			b.Fatal(err)
		}
	}
	// Work counts, not timings: an optimisation that only makes the
	// solver's work cheaper leaves them exactly where they were.
	b.ReportMetric(float64(res.CandidatesEvaluated), "candidates/op")
	b.ReportMetric(float64(res.Probes), "probes/op")
	b.ReportMetric(float64(res.FlowSolves), "flowsolves/op")
}

// BenchmarkReplaySweep replays the Alibaba-style diurnal trace through
// a reactive and a forecast-driven daemon: ~1900 control cycles and
// ~17M routed user-requests per leg, with every cycle's plan scored
// against the arrival rate the trace actually delivered over the window
// it governed. CI runs it with -benchtime=1x.
//
// The sweep enforces the forecasting contract at full scale: the
// forecaster must beat the naive last-value predictor on post-warm-up
// MAPE, and planning against predictions must beat reactive control on
// realized web utility or deadline misses — otherwise forecast-driven
// placement is noise. TestReplaySweep holds the same contract on a
// compressed trace on every go test run.
func BenchmarkReplaySweep(b *testing.B) {
	opts := experiments.DefaultReplaySweepOptions()
	var rows []experiments.ReplaySweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunReplaySweep(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.ReplaySweepTable(rows))
	if len(rows) != 2 || rows[0].Mode != "reactive" || rows[1].Mode != "forecast" {
		b.Fatalf("unexpected sweep rows: %+v", rows)
	}
	reactive, fc := rows[0], rows[1]
	if fc.MAPE <= 0 || fc.MAPE >= fc.NaiveMAPE {
		b.Fatalf("forecaster does not beat naive last-value prediction: MAPE %.4f vs %.4f",
			fc.MAPE, fc.NaiveMAPE)
	}
	if !(fc.MeanWebUtility > reactive.MeanWebUtility || fc.DeadlineMisses < reactive.DeadlineMisses) {
		b.Fatalf("forecast-driven control beats reactive on neither axis: utility %.4f vs %.4f, misses %d vs %d",
			fc.MeanWebUtility, reactive.MeanWebUtility, fc.DeadlineMisses, reactive.DeadlineMisses)
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanWebUtility, "webutil-"+r.Mode)
		b.ReportMetric(float64(r.DeadlineMisses), "misses-"+r.Mode)
	}
	b.ReportMetric(fc.MAPE, "mape")
	b.ReportMetric(fc.NaiveMAPE, "mape-naive")
}

// BenchmarkAllocationSolver times a single placement evaluation (the
// optimizer's inner oracle).
func BenchmarkAllocationSolver(b *testing.B) {
	cl, err := cluster.Uniform(25, 15600, 16384)
	if err != nil {
		b.Fatal(err)
	}
	apps := make([]*core.Application, 76)
	pl := core.NewPlacement(len(apps))
	for i := 0; i < 75; i++ {
		spec := trace.Experiment1Job(fmt.Sprintf("j%d", i), 0)
		apps[i] = &core.Application{
			Name: spec.Name, Kind: core.KindBatch, Job: spec,
			Done: float64(i) * 5e5, Started: true,
		}
		pl.Add(i, cluster.NodeID(i/3))
	}
	apps[75] = &core.Application{
		Name: "web", Kind: core.KindWeb, Web: trace.Experiment3WebApp(),
	}
	for n := 0; n < 25; n++ {
		pl.Add(75, cluster.NodeID(n))
	}
	p := &core.Problem{
		Cluster: cl, Now: 10000, Cycle: 600, Apps: apps, Current: pl,
		Costs: cluster.DefaultCostModel(),
	}
	b.ResetTimer()
	var ev *core.Evaluation
	for i := 0; i < b.N; i++ {
		if ev, err = core.Evaluate(p, pl); err != nil {
			b.Fatal(err)
		}
		if !ev.Feasible {
			b.Fatal("infeasible")
		}
	}
	b.ReportMetric(float64(ev.Probes), "probes/op")
	b.ReportMetric(float64(ev.FlowSolves), "flowsolves/op")
}

// BenchmarkEndToEndPublicAPI times a small complete run through the
// public API (the quickstart scenario).
func BenchmarkEndToEndPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := dynplace.NewSystem(
			dynplace.WithUniformCluster(4, 15600, 16384),
			dynplace.WithControlCycle(300),
			dynplace.WithDynamicPlacement(),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.AddWebApp(dynplace.WebAppSpec{
			Name: "web", ArrivalRate: 100, DemandPerRequest: 120,
			BaseLatency: 0.04, GoalResponseTime: 0.25,
			MaxPowerMHz: 30000, MemoryMB: 2000,
		}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if err := sys.SubmitJob(dynplace.JobSpec{
				Name: fmt.Sprintf("job-%d", j), WorkMcycles: 3900 * 1200,
				MaxSpeedMHz: 3900, MemoryMB: 4320,
				Submit: float64(j) * 300, Deadline: 4 * 3600,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.RunUntilDrained(36000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers ----

var printGuard sync.Map

func printOnce(b *testing.B, out string) {
	b.Helper()
	if _, loaded := printGuard.LoadOrStore(b.Name(), true); !loaded {
		fmt.Println("\n=== " + b.Name() + " ===")
		fmt.Println(out)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
