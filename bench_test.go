package dynplace_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Run it with:
//
//	go test -bench=. -benchmem
//
// Figure benches print the corresponding series/rows once; expensive
// experiment sweeps are computed once and shared between the benches
// that report different views of them (e.g. Figures 3, 4 and 5 all come
// from the Experiment Two sweep). Ablation benches quantify the design
// choices docs/ARCHITECTURE.md calls out.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
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

// ---- Table 1 and Figure 1: the worked example ----

func BenchmarkTable1WorkedExample(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1Text() + "\n" + experiments.WorkedExampleText()
	}
	printOnce(b, out)
}

// ---- Table 2 and Figure 2: Experiment One ----

var exp1Cache = newCache(func() (*experiments.Experiment1Result, error) {
	return experiments.RunExperiment1(experiments.DefaultExperiment1Options())
})

func BenchmarkTable2ExperimentOneProperties(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table2Text()
	}
	printOnce(b, out)
}

func BenchmarkFigure2ExperimentOne(b *testing.B) {
	var res *experiments.Experiment1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp1Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.Figure2Text(res, 24))
	b.ReportMetric(float64(res.Changes), "placement-changes")
	b.ReportMetric(100*res.OnTimeRate, "ontime-%")
}

// ---- Figures 3, 4, 5: Experiment Two ----

var exp2Cache = newCache(func() ([]*experiments.Experiment2Cell, error) {
	return experiments.RunExperiment2(experiments.DefaultExperiment2Options())
})

func BenchmarkFigure3DeadlineRates(b *testing.B) {
	var cells []*experiments.Experiment2Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = exp2Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.Figure3Table(cells))
	for _, c := range cells {
		if c.Interarrival == 50 {
			b.ReportMetric(100*c.OnTimeRate, "ontime50s-"+c.Policy+"-%")
		}
	}
}

func BenchmarkFigure4PlacementChanges(b *testing.B) {
	var cells []*experiments.Experiment2Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = exp2Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.Figure4Table(cells))
	for _, c := range cells {
		if c.Interarrival == 50 {
			b.ReportMetric(float64(c.Changes), "changes50s-"+c.Policy)
		}
	}
}

func BenchmarkFigure5DistanceDistributions(b *testing.B) {
	var cells []*experiments.Experiment2Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = exp2Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.Figure5Table(cells, 200)+"\n"+experiments.Figure5Table(cells, 50))
}

// ---- Figures 6 and 7: Experiment Three ----

var exp3Cache = newCache(func() ([]*experiments.Experiment3Result, error) {
	opts := experiments.DefaultExperiment3Options()
	var out []*experiments.Experiment3Result
	for _, config := range []experiments.Experiment3Config{
		experiments.ConfigDynamic,
		experiments.ConfigStatic9,
		experiments.ConfigStatic6,
	} {
		res, err := experiments.RunExperiment3(opts, config)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
})

func BenchmarkFigure6Heterogeneous(b *testing.B) {
	var results []*experiments.Experiment3Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = exp3Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	out := ""
	for _, res := range results {
		out += experiments.Figure6Text(res, 16) + "\n"
	}
	printOnce(b, out)
}

func BenchmarkFigure7Allocations(b *testing.B) {
	var results []*experiments.Experiment3Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = exp3Cache.get()
		if err != nil {
			b.Fatal(err)
		}
	}
	names := map[experiments.Experiment3Config]string{
		experiments.ConfigDynamic: "dynamic",
		experiments.ConfigStatic9: "static9",
		experiments.ConfigStatic6: "static6",
	}
	out := ""
	for _, res := range results {
		out += experiments.Figure7Text(res, 16) + "\n"
		b.ReportMetric(100*res.OnTimeRate, "ontime-"+names[res.Config]+"-pct")
	}
	printOnce(b, out)
}

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

// BenchmarkScaleSweep measures placement solve latency past the paper's
// 25-node testbed: the flat solver on identical randomized problems at
// 500/1000/2000 nodes, sequential vs parallel candidate evaluation,
// byte-identical placements verified. CI runs it with -benchtime=1x and
// uploads the printed table and BENCH_scale_sweep.json. The sharded
// solver is measured by dynbench's sharded_10k workload
// (cmd/dynbench/README.md) and its contract — global capacity, 1-shard
// ≡ flat — is pinned by internal/shard's tests.
func BenchmarkScaleSweep(b *testing.B) {
	opts := experiments.DefaultScaleSweepOptions()
	var rows []experiments.ScaleSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunScaleSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.ScaleSweepTable(rows))
	writeBenchJSON(b, "scale_sweep", rows)
	for _, r := range rows {
		if !r.Identical {
			b.Fatalf("parallel placement diverged from sequential at %d nodes", r.Nodes)
		}
		b.ReportMetric(r.Speedup, fmt.Sprintf("speedup-%dnodes", r.Nodes))
		b.ReportMetric(r.Sequential.Seconds(), fmt.Sprintf("seq-s-%dnodes", r.Nodes))
	}
}

// BenchmarkReplaySweep replays the Alibaba-style diurnal trace through
// a reactive and a forecast-driven daemon: ~1900 control cycles and
// ~17M routed user-requests per leg, with every cycle's plan scored
// against the arrival rate the trace actually delivered over the window
// it governed. CI runs it with -benchtime=1x next to the other sweeps
// and uploads BENCH_replay_sweep.json.
//
// The sweep enforces the tentpole's contract: the forecaster must beat
// the naive last-value predictor on post-warm-up MAPE, and planning
// against predictions must beat reactive control on realized web
// utility or deadline misses — otherwise forecast-driven placement is
// noise and the PR's premise fails.
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
	writeBenchJSON(b, "replay_sweep", rows)
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

// routerBaseline mirrors scripts/router_baseline.json: the committed
// single-goroutine dispatch numbers BenchmarkRouterSweep gates against.
type routerBaseline struct {
	// SingleNsPerOp is the committed single-goroutine lock-free
	// dispatch cost on the reference machine.
	SingleNsPerOp float64 `json:"singleNsPerOp"`
	// AllocsPerOp is the committed allocation count (zero; any
	// regression is a hot-path leak).
	AllocsPerOp float64 `json:"allocsPerOp"`
	// MaxRegressionFactor absorbs machine-to-machine variance: the gate
	// fails only past SingleNsPerOp × MaxRegressionFactor.
	MaxRegressionFactor float64 `json:"maxRegressionFactor"`
}

// BenchmarkRouterSweep measures router dispatch throughput — lock-free
// dataplane vs the mutex-serialized baseline — at 1/4/NumCPU goroutines,
// with and without a concurrent control loop republishing the routing
// table. CI runs it with -benchtime=1x next to the other sweeps and
// uploads BENCH_router.json.
//
// The sweep enforces the dataplane contract: dispatch performs zero
// heap allocations; at NumCPU goroutines the lock-free router clears
// ≥5x the mutex baseline's single-goroutine throughput (enforced on
// machines with ≥4 CPUs — below that the scaling headroom doesn't
// exist); and single-goroutine dispatch cost must stay within the
// committed scripts/router_baseline.json envelope so regressions fail
// the PR that introduces them instead of surfacing in a graph later.
func BenchmarkRouterSweep(b *testing.B) {
	opts := experiments.DefaultRouterSweepOptions()
	var rows []experiments.RouterSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunRouterSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, experiments.RouterSweepTable(rows))
	writeBenchJSON(b, "router", rows)

	find := func(impl string, goroutines int, republish bool) *experiments.RouterSweepRow {
		for i := range rows {
			r := &rows[i]
			if r.Impl == impl && r.Goroutines == goroutines && r.Republish == republish {
				return r
			}
		}
		return nil
	}
	single := find("lockfree", 1, false)
	mutexSingle := find("mutex", 1, false)
	if single == nil || mutexSingle == nil {
		b.Fatal("router sweep missing the single-goroutine reference rows")
	}

	// Contract: the hot path allocates nothing.
	if single.AllocsPerOp > 0 {
		b.Fatalf("lock-free dispatch allocates %.2f allocs/op, want 0", single.AllocsPerOp)
	}

	// Contract: scaling. At NumCPU goroutines the lock-free router must
	// clear 5x the mutex baseline's single-goroutine throughput. Below
	// 4 CPUs the parallelism to demonstrate that doesn't exist, so the
	// ratio is reported but not enforced.
	maxG := 0
	for _, r := range rows {
		if r.Impl == "lockfree" && !r.Republish && r.Goroutines > maxG {
			maxG = r.Goroutines
		}
	}
	scaled := find("lockfree", maxG, false)
	ratio := scaled.MopsPerSec / mutexSingle.MopsPerSec
	b.ReportMetric(ratio, "throughput-x-mutex1")
	b.ReportMetric(single.NsPerOp, "dispatch-ns")
	b.ReportMetric(scaled.MopsPerSec, "mops-maxg")
	if runtime.NumCPU() >= 4 && ratio < 5 {
		b.Fatalf("lock-free at %d goroutines = %.2f Mops/s, only %.1fx mutex single-goroutine %.2f Mops/s (want ≥5x)",
			maxG, scaled.MopsPerSec, ratio, mutexSingle.MopsPerSec)
	}

	// Regression gate against the committed baseline.
	data, err := os.ReadFile("scripts/router_baseline.json")
	if err != nil {
		b.Fatalf("router baseline: %v", err)
	}
	var base routerBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		b.Fatalf("router baseline: %v", err)
	}
	if base.MaxRegressionFactor <= 1 {
		b.Fatalf("router baseline: maxRegressionFactor %.2f must exceed 1", base.MaxRegressionFactor)
	}
	if single.AllocsPerOp > base.AllocsPerOp {
		b.Fatalf("dispatch allocs/op %.2f exceeds committed baseline %.2f",
			single.AllocsPerOp, base.AllocsPerOp)
	}
	if limit := base.SingleNsPerOp * base.MaxRegressionFactor; single.NsPerOp > limit {
		b.Fatalf("single-goroutine dispatch %.1f ns/op exceeds %.1f (committed %.1f × %.1f headroom)",
			single.NsPerOp, limit, base.SingleNsPerOp, base.MaxRegressionFactor)
	}
}

// writeBenchJSON emits the sweep rows as BENCH_<name>.json when the CI
// bench-smoke job (or a local run) sets BENCH_JSON_DIR.
func writeBenchJSON(b *testing.B, name string, rows any) {
	b.Helper()
	dir := os.Getenv("BENCH_JSON_DIR")
	if dir == "" {
		return
	}
	if err := experiments.WriteBenchJSON(dir, name, rows); err != nil {
		b.Fatal(err)
	}
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

type cache[T any] struct {
	once sync.Once
	fn   func() (T, error)
	val  T
	err  error
}

func newCache[T any](fn func() (T, error)) *cache[T] {
	return &cache[T]{fn: fn}
}

func (c *cache[T]) get() (T, error) {
	c.once.Do(func() { c.val, c.err = c.fn() })
	return c.val, c.err
}

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
