package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/txn"
)

// ScaleSweepOptions parameterizes the solver-latency scale sweep: one
// placement optimization per node count, on a randomized mixed
// web+batch workload, timed once with sequential candidate evaluation
// and once with the parallel worker pool. The sweep goes beyond the
// paper's 25-node testbed to the cluster sizes the co-location trace
// studies report, where solve latency is what bounds the control cycle.
type ScaleSweepOptions struct {
	// NodeCounts lists the cluster sizes to sweep (default 500, 1000,
	// 2000).
	NodeCounts []int
	// JobsPerHundredNodes scales the batch workload with the cluster
	// (default 10, i.e. 200 jobs at 2000 nodes).
	JobsPerHundredNodes int
	// WebApps is the number of transactional applications (default 2).
	WebApps int
	// Parallelism is the worker count for the parallel leg (0 = all
	// CPUs).
	Parallelism int
	// CycleSeconds is the control cycle T (default 600).
	CycleSeconds float64
	// MaxPasses bounds optimizer sweeps (default 1: one full pass is
	// what a latency budget per control cycle buys at this scale).
	MaxPasses int
	// Seed drives workload generation.
	Seed int64
}

// DefaultScaleSweepOptions returns the benchmark's standard settings.
func DefaultScaleSweepOptions() ScaleSweepOptions {
	return ScaleSweepOptions{
		NodeCounts:          []int{500, 1000, 2000},
		JobsPerHundredNodes: 10,
		WebApps:             2,
		CycleSeconds:        600,
		MaxPasses:           1,
		Seed:                7,
	}
}

// ScaleSweepRow is one node count's measurement.
type ScaleSweepRow struct {
	// Nodes and Apps give the problem size.
	Nodes, Apps int
	// Workers is the parallel leg's worker count.
	Workers int
	// Candidates is the number of placements evaluated per solve.
	Candidates int
	// Sequential and Parallel are the solve latencies of the two legs.
	Sequential, Parallel time.Duration
	// Speedup is Sequential/Parallel.
	Speedup float64
	// Identical reports that the two legs chose byte-identical
	// placements with identical evaluation counts — the determinism
	// guarantee, measured rather than asserted.
	Identical bool
}

// RunScaleSweep times one placement optimization per node count, with
// sequential and parallel candidate evaluation over identical problems.
func RunScaleSweep(opts ScaleSweepOptions) ([]ScaleSweepRow, error) {
	def := DefaultScaleSweepOptions()
	if len(opts.NodeCounts) == 0 {
		opts.NodeCounts = def.NodeCounts
	}
	if opts.JobsPerHundredNodes <= 0 {
		opts.JobsPerHundredNodes = def.JobsPerHundredNodes
	}
	if opts.WebApps <= 0 {
		opts.WebApps = def.WebApps
	}
	if opts.CycleSeconds <= 0 {
		opts.CycleSeconds = def.CycleSeconds
	}
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = def.MaxPasses
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	rows := make([]ScaleSweepRow, 0, len(opts.NodeCounts))
	for _, nodes := range opts.NodeCounts {
		p, err := buildScaleProblem(opts, nodes)
		if err != nil {
			return nil, fmt.Errorf("scale sweep (%d nodes): %w", nodes, err)
		}

		// Untimed warm-up solve: both timed legs then run with warm
		// caches and warm evaluation arenas, so the speedup column
		// compares evaluation strategies rather than process warm-up.
		p.Parallelism = 1
		if _, err := core.Optimize(p); err != nil {
			return nil, fmt.Errorf("scale sweep (%d nodes, warm-up): %w", nodes, err)
		}

		start := time.Now()
		seqRes, err := core.Optimize(p)
		if err != nil {
			return nil, fmt.Errorf("scale sweep (%d nodes, sequential): %w", nodes, err)
		}
		seq := time.Since(start)

		p.Parallelism = workers
		start = time.Now()
		parRes, err := core.Optimize(p)
		if err != nil {
			return nil, fmt.Errorf("scale sweep (%d nodes, %d workers): %w", nodes, workers, err)
		}
		par := time.Since(start)

		row := ScaleSweepRow{
			Nodes:      nodes,
			Apps:       len(p.Apps),
			Workers:    workers,
			Candidates: seqRes.CandidatesEvaluated,
			Sequential: seq,
			Parallel:   par,
			Identical: seqRes.Placement.Changes(parRes.Placement) == 0 &&
				seqRes.CandidatesEvaluated == parRes.CandidatesEvaluated &&
				seqRes.Eval.Vector.Compare(parRes.Eval.Vector) == 0,
		}
		if par > 0 {
			row.Speedup = seq.Seconds() / par.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// buildScaleProblem generates one randomized mixed-workload placement
// problem mid-run: web applications already replicated across a few
// nodes, three quarters of the batch jobs placed with random progress,
// the rest queued.
func buildScaleProblem(opts ScaleSweepOptions, nodes int) (*core.Problem, error) {
	cl, err := cluster.Uniform(nodes, 15600, 16384)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed + int64(nodes)))
	jobs := nodes * opts.JobsPerHundredNodes / 100
	if jobs < 10 {
		jobs = 10
	}

	apps := make([]*core.Application, 0, opts.WebApps+jobs)
	current := core.NewPlacement(opts.WebApps + jobs)
	for i := 0; i < opts.WebApps; i++ {
		web := &txn.App{
			Name:             fmt.Sprintf("web-%d", i),
			ArrivalRate:      150 + rng.Float64()*100,
			DemandPerRequest: 120,
			BaseLatency:      0.04,
			GoalResponseTime: 0.25,
			MaxPowerMHz:      40000,
			MemoryMB:         2000,
		}
		apps = append(apps, &core.Application{Name: web.Name, Kind: core.KindWeb, Web: web})
		for k := 0; k < 3; k++ {
			current.Add(i, cluster.NodeID((i*3+k)%nodes))
		}
	}
	placed := jobs * 3 / 4
	for j := 0; j < jobs; j++ {
		work := 1e6 + rng.Float64()*6e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1560+rng.Float64()*2340, 4320, 0, 20000+rng.Float64()*50000)
		idx := opts.WebApps + j
		app := &core.Application{Name: spec.Name, Kind: core.KindBatch, Job: spec}
		if j < placed {
			app.Done = rng.Float64() * work * 0.6
			app.Started = true
			// Three jobs per node fit the 16 GB nodes; start past the
			// web-hosting prefix.
			current.Add(idx, cluster.NodeID((j/3+opts.WebApps*3)%nodes))
		}
		apps = append(apps, app)
	}

	return &core.Problem{
		Cluster:   cl,
		Now:       30000,
		Cycle:     opts.CycleSeconds,
		Apps:      apps,
		Current:   current,
		Costs:     cluster.DefaultCostModel(),
		MaxPasses: opts.MaxPasses,
	}, nil
}

// ScaleSweepTable formats the sweep for the benchmark log and the CI
// artifact.
func ScaleSweepTable(rows []ScaleSweepRow) string {
	var b strings.Builder
	b.WriteString("Scale sweep — placement solve latency, sequential vs parallel candidate evaluation\n")
	b.WriteString("  nodes   apps  candidates  sequential    parallel   speedup  workers  identical\n")
	for _, r := range rows {
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		fmt.Fprintf(&b, "  %5d  %5d  %10d  %10s  %10s  %6.2fx  %7d  %9s\n",
			r.Nodes, r.Apps, r.Candidates,
			r.Sequential.Round(time.Millisecond), r.Parallel.Round(time.Millisecond),
			r.Speedup, r.Workers, ident)
	}
	return b.String()
}
