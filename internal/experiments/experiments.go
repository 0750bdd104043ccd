// Package experiments reproduces the paper's evaluation and extends it
// past the paper's 25-node testbed.
//
// The paper's experiments: Experiment One (prediction accuracy, Figure
// 2 and Table 2), Experiment Two (policy comparison, Figures 3-5) and
// Experiment Three (heterogeneous workloads, Figures 6-7), plus the
// Section 4.3 worked example (Table 1). The mixedsim CLI renders them;
// the package's tests pin their shapes.
//
// Two extensions go past the paper. RunReplaySweep replays a diurnal
// trace through reactive and forecast-driven control, and its
// benchmark (BenchmarkReplaySweep) holds the forecasting contract at
// full scale. BenchmarkFlatSolve times the flat placement solver at
// 500-5 000 nodes on a randomized mixed workload and reports its work
// counts. Everything else about the daemon — sharded solves, dispatch,
// churn, kill -9 recovery, instrumentation cost — is measured by
// cmd/dynbench and asserted by the packages' own tests.
package experiments

import (
	"fmt"
	"math"

	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
	"dynplace/internal/trace"
)

// paperNodes builds the evaluation cluster: 25 nodes, four 3.9 GHz
// processors and 16 GB each.
func paperNodes(count int) (*cluster.Cluster, error) {
	return cluster.Uniform(count, 4*3900, 16384)
}

// Experiment1Interarrival is Experiment One's mean exponential
// inter-arrival time in seconds, the paper's 260 at every scale.
const Experiment1Interarrival = 260.0

// Experiment1Options parameterizes Experiment One. The zero value is not
// meaningful; use DefaultExperiment1Options (the paper's settings) and
// scale down for quick runs.
type Experiment1Options struct {
	// Nodes is the cluster size (paper: 25).
	Nodes int
	// Jobs is the number of identical jobs submitted (paper: 800).
	Jobs int
	// CycleSeconds is the control cycle (paper: 600).
	CycleSeconds float64
	// Seed drives the arrival process.
	Seed int64
}

// DefaultExperiment1Options returns the paper's Experiment One settings.
func DefaultExperiment1Options() Experiment1Options {
	return Experiment1Options{
		Nodes:        25,
		Jobs:         800,
		CycleSeconds: 600,
		Seed:         1,
	}
}

// Experiment1Result carries the Figure 2 series.
type Experiment1Result struct {
	// HypotheticalUtility is the average hypothetical relative
	// performance over time.
	HypotheticalUtility []metrics.Point
	// CompletionUtility is the actual relative performance at each job's
	// completion time.
	CompletionUtility []metrics.Point
	// Changes counts disruptive placement changes (paper: none).
	Changes int
	// OnTimeRate is the fraction of jobs meeting the 2.7× goal.
	OnTimeRate float64
	// UtilityCeiling is the maximum achievable relative performance for
	// the Table 2 job (paper: 0.63).
	UtilityCeiling float64
}

// RunExperiment1 stresses the controller with identical jobs and records
// how hypothetical relative performance predicts completion performance.
func RunExperiment1(opts Experiment1Options) (*Experiment1Result, error) {
	cl, err := paperNodes(opts.Nodes)
	if err != nil {
		return nil, err
	}
	apc, err := control.NewAPC(control.DynamicConfig{})
	if err != nil {
		return nil, err
	}
	runner, err := control.NewRunner(control.Config{
		Cluster:      cl,
		CycleSeconds: opts.CycleSeconds,
		Policy:       apc,
		Costs:        cluster.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	specs := trace.Experiment1Workload(opts.Seed, opts.Jobs, Experiment1Interarrival)
	if err := runner.SubmitAll(specs); err != nil {
		return nil, err
	}
	if err := runner.RunUntilDrained(5e6); err != nil {
		return nil, err
	}
	probe := trace.Experiment1Job("probe", 0)
	return &Experiment1Result{
		HypotheticalUtility: runner.HypotheticalUtility().Points(),
		CompletionUtility:   runner.CompletionUtilities(),
		Changes:             runner.TotalChanges(),
		OnTimeRate:          runner.OnTimeRate(),
		UtilityCeiling:      probe.UtilityCap(0, 0),
	}, nil
}

// Experiment2Options parameterizes Experiment Two.
type Experiment2Options struct {
	// Nodes is the cluster size (paper: 25).
	Nodes int
	// Jobs is the number of jobs per run (paper: 800).
	Jobs int
	// Interarrivals lists the mean inter-arrival times to sweep
	// (paper: 400..50 s).
	Interarrivals []float64
	// CycleSeconds is the control cycle (paper: 600).
	CycleSeconds float64
	// Seed drives workload generation.
	Seed int64
}

// DefaultExperiment2Options returns the paper's Experiment Two settings.
func DefaultExperiment2Options() Experiment2Options {
	return Experiment2Options{
		Nodes:         25,
		Jobs:          800,
		Interarrivals: []float64{400, 350, 300, 250, 200, 150, 100, 50},
		CycleSeconds:  600,
		Seed:          1,
	}
}

// Experiment2Cell is one (policy, inter-arrival) measurement.
type Experiment2Cell struct {
	// Policy names the scheduling algorithm.
	Policy string
	// Interarrival is the mean inter-arrival time of the run.
	Interarrival float64
	// OnTimeRate is Figure 3's metric.
	OnTimeRate float64
	// Changes is Figure 4's metric (suspends + resumes + migrations).
	Changes int
	// DistancesByFactor groups Figure 5's distance-to-goal samples by
	// relative goal factor ("1.3", "2.5", "4.0").
	DistancesByFactor map[string][]float64
}

// RunExperiment2Cell runs one policy at one inter-arrival time.
// Placement-action costs are excluded, as in the paper.
func RunExperiment2Cell(opts Experiment2Options, policy scheduler.Policy, interarrival float64) (*Experiment2Cell, error) {
	cl, err := paperNodes(opts.Nodes)
	if err != nil {
		return nil, err
	}
	runner, err := control.NewRunner(control.Config{
		Cluster:      cl,
		CycleSeconds: opts.CycleSeconds,
		Policy:       policy,
		Costs:        cluster.FreeCostModel(),
	})
	if err != nil {
		return nil, err
	}
	specs := trace.Experiment2Workload(opts.Seed, opts.Jobs, interarrival)
	if err := runner.SubmitAll(specs); err != nil {
		return nil, err
	}
	if err := runner.RunUntilDrained(5e7); err != nil {
		return nil, err
	}
	cell := &Experiment2Cell{
		Policy:            policy.Name(),
		Interarrival:      interarrival,
		OnTimeRate:        runner.OnTimeRate(),
		Changes:           runner.TotalChanges(),
		DistancesByFactor: make(map[string][]float64),
	}
	for _, j := range runner.Jobs() {
		key := factorKey(j.Spec.GoalFactor())
		cell.DistancesByFactor[key] = append(cell.DistancesByFactor[key], j.DistanceToGoal())
	}
	return cell, nil
}

// RunExperiment2 sweeps every policy across every inter-arrival time.
func RunExperiment2(opts Experiment2Options) ([]*Experiment2Cell, error) {
	var out []*Experiment2Cell
	for _, inter := range opts.Interarrivals {
		apc, err := control.NewAPC(control.DynamicConfig{})
		if err != nil {
			return nil, err
		}
		for _, policy := range []scheduler.Policy{scheduler.FCFS{}, scheduler.EDF{}, apc} {
			cell, err := RunExperiment2Cell(opts, policy, inter)
			if err != nil {
				return nil, fmt.Errorf("experiment 2 (%s @ %v s): %w", policy.Name(), inter, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func factorKey(f float64) string {
	switch {
	case math.Abs(f-1.3) < 0.05:
		return "1.3"
	case math.Abs(f-2.5) < 0.05:
		return "2.5"
	case math.Abs(f-4.0) < 0.05:
		return "4.0"
	default:
		return fmt.Sprintf("%.1f", f)
	}
}

// Experiment3Options parameterizes Experiment Three.
type Experiment3Options struct {
	// Nodes is the cluster size (paper: 25).
	Nodes int
	// HeavyJobs arrive at HeavyInterarrival, then LightJobs at
	// LightInterarrival — the paper's "queue up, then drain" shape.
	HeavyJobs, LightJobs                 int
	HeavyInterarrival, LightInterarrival float64
	// CycleSeconds is the control cycle (paper: 600).
	CycleSeconds float64
	// Horizon bounds the run (the paper's plots span ≈65,000 s).
	Horizon float64
	// Seed drives workload generation.
	Seed int64
}

// DefaultExperiment3Options returns settings matching the paper's
// Experiment Three shape.
func DefaultExperiment3Options() Experiment3Options {
	return Experiment3Options{
		Nodes:             25,
		HeavyJobs:         200,
		LightJobs:         40,
		HeavyInterarrival: 180,
		LightInterarrival: 600,
		CycleSeconds:      600,
		Horizon:           65000,
		Seed:              1,
	}
}

// Experiment3Config selects one of the paper's three configurations.
type Experiment3Config int

// The three configurations of Experiment Three.
const (
	// ConfigDynamic shares all nodes between workloads via the APC.
	ConfigDynamic Experiment3Config = iota + 1
	// ConfigStatic9 dedicates 9 nodes to the web workload, 16 to batch.
	ConfigStatic9
	// ConfigStatic6 dedicates 6 nodes to the web workload, 19 to batch.
	ConfigStatic6
)

func (c Experiment3Config) String() string {
	switch c {
	case ConfigDynamic:
		return "APC dynamic sharing"
	case ConfigStatic9:
		return "TX 9 nodes, LR 16 nodes"
	case ConfigStatic6:
		return "TX 6 nodes, LR 19 nodes"
	default:
		return fmt.Sprintf("Experiment3Config(%d)", int(c))
	}
}

// Experiment3Result carries the Figure 6 and 7 series for one
// configuration.
type Experiment3Result struct {
	Config Experiment3Config
	// WebUtility is the transactional workload's relative performance
	// over time (Figure 6, bold line).
	WebUtility []metrics.Point
	// BatchUtility is the long-running workload's mean hypothetical
	// relative performance (Figure 6, thin line).
	BatchUtility []metrics.Point
	// WebAllocation and BatchAllocation are the Figure 7 series (MHz).
	WebAllocation   []metrics.Point
	BatchAllocation []metrics.Point
	// OnTimeRate is the batch goal-satisfaction for reference.
	OnTimeRate float64
}

// RunExperiment3 runs one configuration of Experiment Three.
func RunExperiment3(opts Experiment3Options, config Experiment3Config) (*Experiment3Result, error) {
	cl, err := paperNodes(opts.Nodes)
	if err != nil {
		return nil, err
	}
	web := trace.Experiment3WebApp()
	cfg := control.Config{
		Cluster:      cl,
		CycleSeconds: opts.CycleSeconds,
		Costs:        cluster.DefaultCostModel(),
	}
	switch config {
	case ConfigDynamic:
		cfg.Dynamic = &control.DynamicConfig{}
		cfg.WebApps = append(cfg.WebApps, web)
	case ConfigStatic9:
		cfg.Policy = scheduler.FCFS{}
		cfg.WebApps = append(cfg.WebApps, web)
		cfg.WebNodes = nodeRange(0, 9)
	case ConfigStatic6:
		cfg.Policy = scheduler.FCFS{}
		cfg.WebApps = append(cfg.WebApps, web)
		cfg.WebNodes = nodeRange(0, 6)
	default:
		return nil, fmt.Errorf("experiments: unknown configuration %d", config)
	}
	runner, err := control.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	specs := trace.Experiment3Workload(opts.Seed, opts.HeavyJobs, opts.LightJobs,
		opts.HeavyInterarrival, opts.LightInterarrival)
	if err := runner.SubmitAll(specs); err != nil {
		return nil, err
	}
	if err := runner.Run(opts.Horizon); err != nil {
		return nil, err
	}
	return &Experiment3Result{
		Config:          config,
		WebUtility:      runner.WebUtility(0).Points(),
		BatchUtility:    runner.HypotheticalUtility().Points(),
		WebAllocation:   runner.WebAllocation(0).Points(),
		BatchAllocation: runner.BatchAllocation().Points(),
		OnTimeRate:      runner.OnTimeRate(),
	}, nil
}

func nodeRange(from, to int) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, cluster.NodeID(i))
	}
	return out
}
