package dynplace

import (
	"errors"
	"fmt"

	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/metrics"
)

// System is a simulated cluster under integrated workload management.
// Configure it with options, register workloads, then Run. A System is
// not safe for concurrent use.
type System struct {
	cfg     control.Config
	runner  *control.Runner
	webIdx  map[string]int
	jobSeen map[string]bool
	started bool
}

// ErrStarted reports a configuration change after the simulation began.
var ErrStarted = errors.New("dynplace: system already started")

// NewSystem builds a system from the given options.
func NewSystem(opts ...Option) (*System, error) {
	var s settings
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	cfg, err := s.build()
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:     cfg,
		webIdx:  make(map[string]int),
		jobSeen: make(map[string]bool),
	}, nil
}

// AddWebApp registers a transactional application. All web applications
// must be added before the first Run.
func (s *System) AddWebApp(spec WebAppSpec) error {
	if s.started {
		return ErrStarted
	}
	if _, dup := s.webIdx[spec.Name]; dup {
		return fmt.Errorf("%w: duplicate web app %q", ErrBadSpec, spec.Name)
	}
	app, err := spec.toInternal()
	if err != nil {
		return err
	}
	s.webIdx[spec.Name] = len(s.cfg.WebApps)
	s.cfg.WebApps = append(s.cfg.WebApps, app)
	phases := make([]control.LoadPhase, len(spec.LoadSchedule))
	for i, ph := range spec.LoadSchedule {
		phases[i] = control.LoadPhase{Start: ph.Start, ArrivalRate: ph.ArrivalRate}
	}
	s.cfg.WebLoad = append(s.cfg.WebLoad, phases)
	return nil
}

// SubmitJob registers a batch job for arrival at its submit time. Jobs
// must be submitted before the first Run.
func (s *System) SubmitJob(spec JobSpec) error {
	if s.started {
		return ErrStarted
	}
	if s.jobSeen[spec.Name] {
		return fmt.Errorf("%w: duplicate job %q", ErrBadSpec, spec.Name)
	}
	internal, err := spec.toInternal()
	if err != nil {
		return err
	}
	if err := s.ensureRunner(); err != nil {
		return err
	}
	if err := s.runner.Submit(internal); err != nil {
		return err
	}
	s.jobSeen[spec.Name] = true
	return nil
}

// SubmitParallelJob splits a job into shards independent sub-jobs that
// the controller places separately — simple fork-join parallelism, the
// paper's "explicit support for parallel jobs" future-work item. Work is
// divided evenly; every shard inherits the deadline, so the job as a
// whole meets its goal iff all shards do. Shard names append "#k" to the
// job name. Multi-stage specs split each stage's work evenly.
func (s *System) SubmitParallelJob(spec JobSpec, shards int) error {
	if shards <= 0 {
		return fmt.Errorf("%w: shards must be positive", ErrBadSpec)
	}
	if shards == 1 {
		return s.SubmitJob(spec)
	}
	for k := 0; k < shards; k++ {
		shard := spec
		shard.Name = fmt.Sprintf("%s#%d", spec.Name, k)
		shard.WorkMcycles = spec.WorkMcycles / float64(shards)
		if len(spec.Stages) > 0 {
			shard.Stages = make([]Stage, len(spec.Stages))
			copy(shard.Stages, spec.Stages)
			for i := range shard.Stages {
				shard.Stages[i].WorkMcycles /= float64(shards)
			}
		}
		if err := s.SubmitJob(shard); err != nil {
			return err
		}
	}
	return nil
}

// FailNode schedules a node failure at virtual time at: the node's
// capacity disappears and its jobs are suspended (progress preserved).
// Under dynamic placement the displaced jobs are rescued onto surviving
// nodes at the next cycle, counted in JobResult.Rescues.
func (s *System) FailNode(at float64, node int) error {
	if err := s.ensureRunner(); err != nil {
		return err
	}
	return s.runner.FailNode(at, cluster.NodeID(node))
}

// AddNode schedules a node joining the cluster at virtual time at; its
// capacity is offered to the placement optimizer from the next control
// cycle on. Dynamic placement mode only.
func (s *System) AddNode(at float64, name string, cpuMHz, memMB float64) error {
	if err := s.ensureRunner(); err != nil {
		return err
	}
	return s.runner.AddNode(at, cluster.Node{Name: name, CPUMHz: cpuMHz, MemMB: memMB})
}

// DrainNode schedules a graceful node departure at virtual time at: the
// node stops receiving placements and its work is live-migrated off at
// the next cycle, with no lost progress. Dynamic placement mode only.
func (s *System) DrainNode(at float64, node int) error {
	if err := s.ensureRunner(); err != nil {
		return err
	}
	return s.runner.DrainNode(at, cluster.NodeID(node))
}

func (s *System) ensureRunner() error {
	if s.runner != nil {
		return nil
	}
	r, err := control.NewRunner(s.cfg)
	if err != nil {
		return err
	}
	s.runner = r
	return nil
}

// Run executes control cycles until the horizon (virtual seconds). It
// may be called repeatedly with growing horizons.
func (s *System) Run(horizon float64) error {
	if err := s.ensureRunner(); err != nil {
		return err
	}
	s.started = true
	return s.runner.Run(horizon)
}

// RunUntilDrained executes until every submitted job completes, bounded
// by the guard horizon.
func (s *System) RunUntilDrained(maxHorizon float64) error {
	if err := s.ensureRunner(); err != nil {
		return err
	}
	s.started = true
	return s.runner.RunUntilDrained(maxHorizon)
}

// Now returns the current virtual time in seconds.
func (s *System) Now() float64 {
	if s.runner == nil {
		return 0
	}
	return s.runner.Now()
}

// JobResults reports the outcome of every submitted job, in submission
// registration order.
func (s *System) JobResults() []JobResult {
	if s.runner == nil {
		return nil
	}
	jobs := s.runner.Jobs()
	out := make([]JobResult, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, JobResultOf(j))
	}
	return out
}

// OnTimeRate returns the fraction of submitted jobs that completed by
// their deadlines.
func (s *System) OnTimeRate() float64 {
	if s.runner == nil {
		return 0
	}
	return s.runner.OnTimeRate()
}

// PlacementChanges returns the number of disruptive placement actions
// (suspends, resumes, migrations) performed so far.
func (s *System) PlacementChanges() int {
	if s.runner == nil {
		return 0
	}
	return s.runner.TotalChanges()
}

// BatchUtilitySeries returns the mean hypothetical relative performance
// of the batch workload, sampled each control cycle.
func (s *System) BatchUtilitySeries() []Point {
	if s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.HypotheticalUtility().Points())
}

// BatchAllocationSeries returns the aggregate CPU (MHz) allocated to
// batch work, sampled each control cycle.
func (s *System) BatchAllocationSeries() []Point {
	if s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.BatchAllocation().Points())
}

// WebUtilitySeries returns the named web application's relative
// performance over time.
func (s *System) WebUtilitySeries(app string) []Point {
	idx, ok := s.webIdx[app]
	if !ok || s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.WebUtility(idx).Points())
}

// WebAllocationSeries returns the named web application's CPU allocation
// (MHz) over time.
func (s *System) WebAllocationSeries(app string) []Point {
	idx, ok := s.webIdx[app]
	if !ok || s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.WebAllocation(idx).Points())
}

// QueueLengthSeries returns the number of jobs waiting (queued or
// suspended) at each control cycle.
func (s *System) QueueLengthSeries() []Point {
	if s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.QueueLength().Points())
}

// CompletionUtilities returns (completion time, relative performance)
// samples for completed jobs.
func (s *System) CompletionUtilities() []Point {
	if s.runner == nil {
		return nil
	}
	return convertPoints(s.runner.CompletionUtilities())
}

func convertPoints(in []metrics.Point) []Point {
	out := make([]Point, len(in))
	for i, p := range in {
		out[i] = Point{Time: p.T, Value: p.V}
	}
	return out
}

// SystemMetrics is the durability-and-uptime gauge set shared by the
// simulated System and the live daemon's /v1/metrics payload (the daemon
// inlines these fields in its metrics and state views, under the same
// JSON names). For a System — which lives and dies with one process —
// Restarts and ReplayDurationSeconds are always zero; the dynplaced
// daemon reports its real crash-recovery trajectory through them.
type SystemMetrics struct {
	// UptimeCycles counts control cycles executed by this process (for
	// a System, all cycles ever run).
	UptimeCycles int64 `json:"uptimeCycles"`
	// Restarts counts recoveries from the durable state store that
	// preceded this process's state.
	Restarts int `json:"restarts"`
	// ReplayDurationSeconds is how long the last snapshot+WAL replay
	// took (wall-clock seconds).
	ReplayDurationSeconds float64 `json:"replayDurationSeconds"`
}

// Metrics reports the system's lifetime gauges.
func (s *System) Metrics() SystemMetrics {
	if s.runner == nil {
		return SystemMetrics{}
	}
	return SystemMetrics{UptimeCycles: s.runner.Cycles()}
}
