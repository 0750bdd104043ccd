package dynplace

import (
	"errors"
	"fmt"
	"strings"

	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/forecast"
	"dynplace/internal/scheduler"
)

// Option configures a System.
type Option func(*settings) error

type settings struct {
	nodes        []cluster.Node
	cycleSeconds float64
	costs        cluster.CostModel
	costsSet     bool

	policyName string
	dynamic    bool
	webNodes   []cluster.NodeID

	// dyn is the optimizer tuning, handed to dynamic mode or to the APC
	// policy.
	dyn control.DynamicConfig
}

// ErrBadOption reports an invalid configuration.
var ErrBadOption = errors.New("dynplace: invalid option")

// WithUniformCluster adds count identical nodes with the given per-node
// CPU capacity (MHz) and memory (MB).
func WithUniformCluster(count int, cpuMHz, memMB float64) Option {
	return func(s *settings) error {
		if count <= 0 {
			return fmt.Errorf("%w: cluster node count must be positive, got %d", ErrBadOption, count)
		}
		n := cluster.Node{CPUMHz: cpuMHz, MemMB: memMB}
		if err := checkNode(n); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			s.nodes = append(s.nodes, n)
		}
		return nil
	}
}

// WithNode adds one node with the given capacities. Nodes are numbered in
// the order added, starting at 0.
func WithNode(name string, cpuMHz, memMB float64) Option {
	return func(s *settings) error {
		n := cluster.Node{Name: name, CPUMHz: cpuMHz, MemMB: memMB}
		if err := checkNode(n); err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
		return nil
	}
}

// checkNode applies the cluster's capacity rule (finite and positive
// CPU and memory) to one node as an option is applied, so a bad node
// fails at its option rather than when the cluster is built.
func checkNode(n cluster.Node) error {
	if _, err := cluster.New(n); err != nil {
		return fmt.Errorf("%w: %w", ErrBadOption, err)
	}
	return nil
}

// WithClusterSpec adds nodes from a compact inventory description:
// comma-separated "COUNTxCPU_MHZ/MEM_MB" groups, e.g.
// "4x3000/4096,1x6400/8192" — the same format the dynplaced daemon
// accepts on its command line.
func WithClusterSpec(spec string) Option {
	return func(s *settings) error {
		nodes, err := cluster.ParseNodes(spec)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		s.nodes = append(s.nodes, nodes...)
		return nil
	}
}

// WithControlCycle sets the control cycle length T in seconds.
func WithControlCycle(seconds float64) Option {
	return func(s *settings) error {
		if seconds <= 0 {
			return fmt.Errorf("%w: control cycle must be positive", ErrBadOption)
		}
		s.cycleSeconds = seconds
		return nil
	}
}

// WithDynamicPlacement manages web applications and batch jobs together
// on all nodes via the placement controller — the paper's technique.
func WithDynamicPlacement() Option {
	return func(s *settings) error {
		if s.policyName != "" {
			return fmt.Errorf("%w: dynamic placement excludes WithPolicy", ErrBadOption)
		}
		s.dynamic = true
		return nil
	}
}

// ForecastSpec configures the online demand estimator behind
// forecast-driven placement. Zero fields take the estimator defaults
// (one-day season, 48 template slots, smoothing time constants derived
// from the season).
type ForecastSpec struct {
	// SeasonSeconds is the seasonal period of the demand pattern.
	SeasonSeconds float64
	// Slots is the number of seasonal-template buckets per season.
	Slots int
	// LevelTauSeconds and TrendTauSeconds are the time constants of
	// the level and trend smoothers: an observation Δt after the
	// previous one moves the estimate by 1 − exp(−Δt/τ) of the
	// innovation.
	LevelTauSeconds float64
	TrendTauSeconds float64
	// SeasonalGamma is the per-visit EWMA weight of the seasonal
	// template update, in (0, 1].
	SeasonalGamma float64
}

// WithForecast plans each control cycle against predicted next-cycle
// demand instead of the last observed arrival rate, using the default
// estimator configuration (one-day season, 48 template slots).
// Requires WithDynamicPlacement.
func WithForecast() Option {
	return WithForecastSpec(ForecastSpec{})
}

// WithForecastSpec is WithForecast with an explicit estimator
// configuration. Requires WithDynamicPlacement.
func WithForecastSpec(spec ForecastSpec) Option {
	return func(s *settings) error {
		if spec.SeasonSeconds < 0 || spec.Slots < 0 ||
			spec.LevelTauSeconds < 0 || spec.TrendTauSeconds < 0 {
			return fmt.Errorf("%w: forecast parameters must be nonnegative", ErrBadOption)
		}
		if spec.SeasonalGamma < 0 || spec.SeasonalGamma > 1 {
			return fmt.Errorf("%w: seasonal gamma must be in [0, 1]", ErrBadOption)
		}
		s.dyn.Forecast = &forecast.Config{
			SeasonSeconds:   spec.SeasonSeconds,
			Slots:           spec.Slots,
			LevelTauSeconds: spec.LevelTauSeconds,
			TrendTauSeconds: spec.TrendTauSeconds,
			SeasonalGamma:   spec.SeasonalGamma,
		}
		return nil
	}
}

// WithPolicy schedules batch jobs with the named policy: "apc" (the
// placement controller restricted to batch work), "edf" (preemptive
// Earliest Deadline First) or "fcfs" (non-preemptive First-Come
// First-Served).
func WithPolicy(name string) Option {
	return func(s *settings) error {
		if s.dynamic {
			return fmt.Errorf("%w: WithPolicy excludes dynamic placement", ErrBadOption)
		}
		switch strings.ToLower(name) {
		case "apc", "edf", "fcfs":
			s.policyName = strings.ToLower(name)
			return nil
		default:
			return fmt.Errorf("%w: unknown policy %q", ErrBadOption, name)
		}
	}
}

// WithStaticWebPartition dedicates the listed nodes to the web
// applications (policy mode): batch jobs run on the remaining nodes.
func WithStaticWebPartition(nodes ...int) Option {
	return func(s *settings) error {
		for _, n := range nodes {
			if n < 0 {
				return fmt.Errorf("%w: negative node id %d", ErrBadOption, n)
			}
			s.webNodes = append(s.webNodes, cluster.NodeID(n))
		}
		return nil
	}
}

// WithPlacementCosts sets the virtualization action cost model: the
// per-MB suspend, resume and migration factors and the fixed boot time,
// in seconds. The defaults are the paper's measured constants
// (0.0353 s/MB, 0.0333 s/MB, 0.0132 s/MB, 3.6 s).
func WithPlacementCosts(suspendPerMB, resumePerMB, migratePerMB, bootSeconds float64) Option {
	return func(s *settings) error {
		if suspendPerMB < 0 || resumePerMB < 0 || migratePerMB < 0 || bootSeconds < 0 {
			return fmt.Errorf("%w: costs must be nonnegative", ErrBadOption)
		}
		s.costs = cluster.CostModel{
			SuspendPerMB: suspendPerMB,
			ResumePerMB:  resumePerMB,
			MigratePerMB: migratePerMB,
			BootSeconds:  bootSeconds,
		}
		s.costsSet = true
		return nil
	}
}

// WithFreePlacementActions disables placement-action costs (the paper's
// Experiment Two setting).
func WithFreePlacementActions() Option {
	return func(s *settings) error {
		s.costs = cluster.FreeCostModel()
		s.costsSet = true
		return nil
	}
}

// WithComparisonResolution sets the utility-comparison resolution ε used
// by the placement optimizer (default 0.02): configurations tying at
// this resolution keep the current placement.
func WithComparisonResolution(eps float64) Option {
	return func(s *settings) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("%w: resolution must be in (0,1)", ErrBadOption)
		}
		s.dyn.Epsilon = eps
		return nil
	}
}

// WithExactHypothetical switches the batch performance predictor from
// the paper's sampled-grid interpolation to exact bisection.
func WithExactHypothetical() Option {
	return func(s *settings) error {
		s.dyn.ExactHypothetical = true
		return nil
	}
}

// WithOptimizerPasses bounds the placement optimizer's improvement
// sweeps per cycle (default 3).
func WithOptimizerPasses(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("%w: passes must be positive", ErrBadOption)
		}
		s.dyn.MaxPasses = n
		return nil
	}
}

// WithParallelism bounds the placement optimizer's candidate-evaluation
// worker pool: 1 evaluates sequentially, n > 1 uses n workers, and 0
// (the default) uses every available CPU. Placement decisions are
// bit-identical at every setting — only solve latency changes — so this
// is purely a latency/footprint knob.
func WithParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: parallelism must be nonnegative", ErrBadOption)
		}
		s.dyn.Parallelism = n
		return nil
	}
}

// ShardSpec configures the sharded placement coordinator: the cluster
// is partitioned into Count zones, each solved as an independent
// placement problem every cycle, with workloads rebalanced across zones
// from per-zone utilization and unmet demand. Seed drives the
// deterministic first-touch spreading of new workloads; for a fixed
// spec the resulting placements are fully reproducible.
type ShardSpec struct {
	// Count is the number of zones. 1 engages the coordinator with a
	// single zone, whose placements are bit-identical to the flat
	// solver's.
	Count int
	// Seed is the deterministic rebalancing seed (0 is a valid seed).
	Seed int64
}

// WithShards partitions the cluster into count zones solved
// concurrently — the scaling lever for clusters too large for one flat
// placement problem per cycle. Shorthand for WithShardSpec with a zero
// seed.
func WithShards(count int) Option {
	return WithShardSpec(ShardSpec{Count: count})
}

// WithShardSpec configures the sharded placement coordinator with an
// explicit zone count and rebalancing seed.
func WithShardSpec(spec ShardSpec) Option {
	return func(s *settings) error {
		if spec.Count < 1 {
			return fmt.Errorf("%w: shard count must be at least 1, got %d", ErrBadOption, spec.Count)
		}
		s.dyn.Shards, s.dyn.ShardSeed = spec.Count, spec.Seed
		return nil
	}
}

// build assembles the control-loop configuration.
func (s *settings) build() (control.Config, error) {
	if len(s.nodes) == 0 {
		return control.Config{}, fmt.Errorf("%w: no nodes configured", ErrBadOption)
	}
	if s.cycleSeconds == 0 {
		s.cycleSeconds = 600
	}
	if !s.costsSet {
		s.costs = cluster.DefaultCostModel()
	}
	cl, err := cluster.New(s.nodes...)
	if err != nil {
		return control.Config{}, err
	}
	cfg := control.Config{
		Cluster:      cl,
		CycleSeconds: s.cycleSeconds,
		Costs:        s.costs,
		WebNodes:     s.webNodes,
	}
	if s.dyn.Forecast != nil && !s.dynamic {
		return control.Config{}, fmt.Errorf("%w: WithForecast requires WithDynamicPlacement", ErrBadOption)
	}
	switch {
	case s.dynamic:
		cfg.Dynamic = &s.dyn
	case s.policyName == "" || s.policyName == "apc":
		if cfg.Policy, err = control.NewAPC(s.dyn); err != nil {
			return control.Config{}, err
		}
	case s.policyName == "edf":
		cfg.Policy = scheduler.EDF{}
	case s.policyName == "fcfs":
		cfg.Policy = scheduler.FCFS{}
	}
	return cfg, nil
}
