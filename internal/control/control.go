// Package control implements the management control loop: every cycle T
// it consults the configured scheduling policy (or the integrated
// placement controller for mixed workloads) and applies the resulting
// placement actions with their virtualization costs.
//
// Two modes are supported, matching the paper's Experiment Three
// configurations:
//
//   - Policy mode: batch jobs are scheduled by a pluggable policy (APC,
//     defined here, or the EDF and FCFS baselines of internal/scheduler)
//     on the nodes not reserved for web workloads; web applications, if
//     any, are statically assigned dedicated nodes.
//   - Dynamic mode: the placement controller manages web applications and
//     batch jobs together on the full cluster, sharing resources by
//     equalizing relative performance.
//
// The control step itself — job ledger, load phases, node failures,
// action accounting — lives in Planner and is written once. Runner drives
// it under virtual time, scheduling the simulated events and recording
// the time series the paper's figures report; the live daemon
// (internal/daemon) drives the same calls on a real clock. The planner
// and the APC policy build and solve their placement problem through one
// solver; when DynamicConfig.Shards is set, it delegates each solve to
// the sharded coordinator (internal/shard), which solves the cluster as
// independent zones instead of one flat placement problem.
package control

import (
	"errors"
	"fmt"
	"math"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/forecast"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
	"dynplace/internal/sim"
	"dynplace/internal/txn"
)

// DynamicConfig tunes the integrated placement controller.
type DynamicConfig struct {
	// Epsilon is the minimum improvement justifying placement changes.
	Epsilon float64
	// MaxPasses bounds optimizer sweeps.
	MaxPasses int
	// ExactHypothetical selects bisection over the sampled grid.
	ExactHypothetical bool
	// Parallelism bounds the optimizer's candidate-evaluation workers
	// (1 = sequential, 0 = GOMAXPROCS). Placement decisions are
	// identical at every setting; only solve latency changes.
	Parallelism int
	// Shards, when at least 1, partitions the cluster into that many
	// zones solved concurrently by the shard coordinator, with web apps
	// and batch jobs rebalanced across zones each cycle. 0 keeps the
	// single flat placement problem. 1 engages the coordinator with one
	// zone, whose output is bit-identical to the flat solver's.
	Shards int
	// ShardSeed drives the coordinator's deterministic first-touch
	// spreading; rebalancing is reproducible for a fixed seed.
	ShardSeed int64
	// Explain, when set, makes every Plan carry a PlanExplanation — the
	// per-application decision provenance (outcome, binding constraint,
	// utility delta, reason chain) reconstructed from the adopted
	// placement. Costs one O(apps × nodes) pass plus one candidate
	// evaluation per denied application per cycle, never per candidate;
	// off, the planner's hot path is untouched.
	Explain bool
	// Forecast, when non-nil, enables forecast-driven control: the
	// planner learns each web application's demand online (level, trend
	// and a seasonal template — see internal/forecast) and solves every
	// cycle against the predicted next-cycle arrival rates instead of
	// the last-observed ones. Nil keeps the purely reactive control
	// loop, bit-identical to the planner without the forecasting path.
	Forecast *forecast.Config
}

// Config describes one experiment run.
type Config struct {
	// Cluster is the hardware inventory.
	Cluster *cluster.Cluster
	// CycleSeconds is the control cycle length T.
	CycleSeconds float64
	// Costs is the placement-action cost model.
	Costs cluster.CostModel

	// Policy schedules batch jobs (policy mode). Mutually exclusive with
	// Dynamic.
	Policy scheduler.Policy
	// Dynamic enables integrated mixed-workload management.
	Dynamic *DynamicConfig

	// WebApps are the transactional applications.
	WebApps []*txn.App
	// WebLoad optionally schedules arrival-rate changes per web app
	// (parallel to WebApps; nil entries keep the app's rate constant),
	// applied by the rule of Planner.ScheduleLoad. The controller reacts
	// at the next cycle — the scenario the paper's short control cycle
	// exists for.
	WebLoad [][]LoadPhase
	// WebNodes statically dedicates nodes to the web workload (policy
	// mode only); batch jobs run on the remaining nodes.
	WebNodes []cluster.NodeID
}

// LoadPhase sets a web application's request arrival rate from a given
// virtual time onward.
type LoadPhase struct {
	// Start is when the phase begins (seconds of virtual time).
	Start float64
	// ArrivalRate is λ during the phase (requests/second).
	ArrivalRate float64
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("control: invalid config")

// Runner drives one simulated experiment: it schedules the Planner's
// control step and the experiment's events on virtual time and records
// the series the paper's figures report.
type Runner struct {
	cfg Config
	sim *sim.Simulator
	// planner runs the control step. In policy mode it holds the web
	// apps, the job ledger and the node states, and the policy replaces
	// its decide half.
	planner *Planner
	// submitted lists every submitted job in submission order for the
	// reports (Jobs, OnTimeRate, CompletionUtilities); the planner's
	// ledger drops jobs once they complete.
	submitted []*scheduler.Job
	// deferredErr holds the first error from a scheduled node-lifecycle
	// event; Run surfaces it once the horizon is reached.
	deferredErr error

	// Recorded series.
	hypoUtil     *metrics.Series // mean hypothetical utility, batch
	webUtil      []*metrics.Series
	webAlloc     []*metrics.Series
	batchAlloc   *metrics.Series
	queueLen     *metrics.Series
	changes      *metrics.Series
	totalChanges int
	cycles       int64
}

// NewRunner validates the configuration and prepares a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Cluster == nil || cfg.Cluster.Len() == 0 {
		return nil, fmt.Errorf("%w: empty cluster", ErrBadConfig)
	}
	if cfg.CycleSeconds <= 0 {
		return nil, fmt.Errorf("%w: cycle must be positive", ErrBadConfig)
	}
	switch {
	case cfg.Policy != nil && cfg.Dynamic != nil:
		return nil, fmt.Errorf("%w: Policy and Dynamic are mutually exclusive", ErrBadConfig)
	case cfg.Policy == nil && cfg.Dynamic == nil:
		return nil, fmt.Errorf("%w: need a Policy or Dynamic mode", ErrBadConfig)
	case cfg.Dynamic != nil && len(cfg.WebNodes) > 0:
		return nil, fmt.Errorf("%w: WebNodes is for static partitions (policy mode)", ErrBadConfig)
	}
	for _, id := range cfg.WebNodes {
		if _, ok := cfg.Cluster.Node(id); !ok {
			return nil, fmt.Errorf("%w: web node %d not in cluster", ErrBadConfig, id)
		}
	}
	var dyn DynamicConfig
	if cfg.Dynamic != nil {
		dyn = *cfg.Dynamic
	}
	p, err := NewPlanner(cfg.Cluster, cfg.Costs, dyn)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:        cfg,
		sim:        sim.New(),
		planner:    p,
		hypoUtil:   new(metrics.Series),
		batchAlloc: new(metrics.Series),
		queueLen:   new(metrics.Series),
		changes:    new(metrics.Series),
	}
	for i, w := range cfg.WebApps {
		var phases []LoadPhase
		if i < len(cfg.WebLoad) {
			phases = cfg.WebLoad[i]
		}
		if err := r.AddWebApp(w, phases); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AddWebApp registers a transactional application with its scheduled
// load phases (nil keeps its rate constant) and starts its utility and
// allocation series. The app joins the next control cycle.
func (r *Runner) AddWebApp(app *txn.App, phases []LoadPhase) error {
	if err := r.planner.AddWebApp(app); err != nil {
		return err
	}
	r.planner.ScheduleLoad(app.Name, phases)
	r.webUtil = append(r.webUtil, new(metrics.Series))
	r.webAlloc = append(r.webAlloc, new(metrics.Series))
	return nil
}

// Submit registers a job for arrival at its spec's submit time; a submit
// time already passed makes it live at the next cycle, as in the daemon.
// A job name already submitted is rejected.
func (r *Runner) Submit(spec *batch.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	j, err := r.planner.Submit(spec)
	if err != nil {
		return err
	}
	r.submitted = append(r.submitted, j)
	return nil
}

// SubmitAll registers a whole trace.
func (r *Runner) SubmitAll(specs []*batch.Spec) error {
	for _, s := range specs {
		if err := r.Submit(s); err != nil {
			return err
		}
	}
	return nil
}

// FailNode schedules a node failure: at time t the node's capacity
// disappears and jobs on it are suspended (progress preserved, as with
// suspend-to-shared-storage virtualization).
func (r *Runner) FailNode(at float64, node cluster.NodeID) error {
	if r.cfg.Dynamic == nil {
		// Policy mode has a static node set, so the ID is checkable now.
		if _, ok := r.cfg.Cluster.Node(node); !ok {
			return fmt.Errorf("%w: no node %d", ErrBadConfig, node)
		}
	}
	_, err := r.sim.At(sim.Time(at), func(now sim.Time) {
		// Dynamic mode resolves at fire time, so nodes scheduled to join
		// earlier are failable; an ID unknown even then is a scenario
		// bug, surfaced from Run.
		if _, ok := r.planner.Inventory().Node(node); !ok {
			r.noteDeferredErr(fmt.Errorf("%w: no node %d", ErrBadConfig, node))
			return
		}
		r.planner.FailNode(node, now.Seconds())
	})
	return err
}

// noteDeferredErr records the first error from a scheduled
// node-lifecycle event (which cannot return errors itself) so Run can
// surface it instead of the scenario silently running with a different
// inventory than configured.
func (r *Runner) noteDeferredErr(err error) {
	if err != nil && r.deferredErr == nil {
		r.deferredErr = err
	}
}

// AddNode schedules a node joining the cluster at virtual time at: from
// the next control cycle on, its capacity is offered to the placement
// optimizer. Only the dynamic (integrated placement) mode replans
// against a live inventory; policy mode keeps its static node set.
// Capacity is validated eagerly; a duplicate name (knowable only when
// the event fires) is reported as an error from Run.
func (r *Runner) AddNode(at float64, n cluster.Node) error {
	if r.cfg.Dynamic == nil {
		return fmt.Errorf("%w: AddNode requires dynamic mode", ErrBadConfig)
	}
	if n.CPUMHz <= 0 || n.MemMB <= 0 {
		return fmt.Errorf("%w: node needs positive CPU and memory (got %v MHz, %v MB)",
			ErrBadConfig, n.CPUMHz, n.MemMB)
	}
	_, err := r.sim.At(sim.Time(at), func(sim.Time) {
		_, err := r.planner.AddNode(n)
		r.noteDeferredErr(err)
	})
	return err
}

// DrainNode schedules a graceful node departure at virtual time at: the
// node stops receiving placements and the controller live-migrates its
// work off at the next cycle. Dynamic mode only, as with AddNode. The
// node is resolved when the event fires — so a node scheduled to join
// earlier via AddNode is drainable — and an unknown node at that instant
// is reported as an error from Run.
func (r *Runner) DrainNode(at float64, node cluster.NodeID) error {
	if r.cfg.Dynamic == nil {
		return fmt.Errorf("%w: DrainNode requires dynamic mode", ErrBadConfig)
	}
	_, err := r.sim.At(sim.Time(at), func(sim.Time) {
		r.noteDeferredErr(r.planner.DrainNode(node))
	})
	return err
}

// Run executes control cycles until the horizon. Jobs still incomplete
// at the horizon remain incomplete.
func (r *Runner) Run(horizon float64) error {
	return r.run(horizon, false)
}

// RunUntilDrained executes control cycles until every submitted job has
// completed, or the guard horizon is hit.
func (r *Runner) RunUntilDrained(maxHorizon float64) error {
	return r.run(maxHorizon, true)
}

func (r *Runner) run(horizon float64, drain bool) error {
	var tickErr error
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		if err := r.cycle(now.Seconds()); err != nil {
			tickErr = err
			r.sim.Stop()
			return
		}
		if drain && r.allDone() {
			return
		}
		next := now.Add(r.cfg.CycleSeconds)
		if float64(next) > horizon {
			return
		}
		if _, err := r.sim.At(next, tick); err != nil {
			tickErr = err
			r.sim.Stop()
		}
	}
	start := r.sim.Now()
	if _, err := r.sim.At(start, tick); err != nil {
		return err
	}
	// Jobs advance only when the planner reads them, so work finishing
	// between the last cycle and the horizon is credited here.
	r.planner.Advance(r.sim.Run(sim.Time(horizon)).Seconds())
	if tickErr == nil {
		tickErr = r.deferredErr
	}
	return tickErr
}

// allDone reports whether every submitted job has completed: the
// planner's ledger retires exactly the completed jobs.
func (r *Runner) allDone() bool { return len(r.planner.jobs) == 0 }

// batchNodes returns the capacities available to batch work: the active
// nodes outside the static web partition.
func (r *Runner) batchNodes() []scheduler.NodeCapacity {
	reserved := make(map[cluster.NodeID]bool, len(r.cfg.WebNodes))
	for _, id := range r.cfg.WebNodes {
		reserved[id] = true
	}
	var out []scheduler.NodeCapacity
	for _, n := range r.planner.Inventory().Nodes() {
		if reserved[n.ID] || n.State != cluster.NodeActive {
			continue
		}
		out = append(out, scheduler.NodeCapacity{ID: n.ID, CPUMHz: n.CPUMHz, MemMB: n.MemMB})
	}
	return out
}

// cycle runs one control-loop iteration at time now — the planner's
// control step, with the policy deciding in policy mode — and records
// the figure series.
func (r *Runner) cycle(now float64) error {
	r.cycles++
	live, _ := r.planner.Advance(now)
	var plan *Plan
	var asg []scheduler.Assignment
	var err error
	if r.cfg.Dynamic != nil {
		if plan, err = r.planner.Plan(now, r.cfg.CycleSeconds, live); err == nil {
			asg = plan.Assignments
		}
	} else {
		asg, err = r.cfg.Policy.Schedule(now, r.cfg.CycleSeconds, live, r.batchNodes(), r.cfg.Costs)
	}
	if err != nil {
		return err
	}
	changed, queued := r.planner.Apply(now, live, asg)
	if plan != nil {
		r.recordPlan(now, plan)
	} else {
		r.recordPolicy(now, live, asg)
	}
	r.totalChanges += changed
	r.changes.Add(now, float64(changed))
	r.queueLen.Add(now, float64(queued))
	return nil
}

// recordPolicy records a policy-mode cycle: the batch allocation and
// hypothetical utility, and the static web partition modelled
// analytically.
func (r *Runner) recordPolicy(now float64, live []*scheduler.Job, asg []scheduler.Assignment) {
	var omegaG float64
	for _, a := range asg {
		omegaG += a.SpeedMHz
	}
	r.batchAlloc.Add(now, omegaG)
	r.recordHypothetical(now, live, omegaG)

	// Static web partition: the apps share the reserved nodes' capacity.
	if len(r.planner.webApps) > 0 {
		var partitionCPU float64
		for _, id := range r.cfg.WebNodes {
			if n, _ := r.planner.Inventory().Node(id); n.State == cluster.NodeActive {
				partitionCPU += n.CPUMHz
			}
		}
		remaining := partitionCPU
		for i, w := range r.planner.webApps {
			alloc := math.Min(remaining, w.MaxDemand())
			remaining -= alloc
			r.webAlloc[i].Add(now, alloc)
			r.webUtil[i].Add(now, w.Utility(alloc))
		}
	}
}

// recordPlan records a dynamic-mode cycle from the planner's decision.
func (r *Runner) recordPlan(now float64, plan *Plan) {
	for i := range r.planner.webApps {
		r.webAlloc[i].Add(now, plan.WebAllocMHz[i])
		r.webUtil[i].Add(now, plan.WebUtilities[i])
	}
	r.batchAlloc.Add(now, plan.OmegaG)
	// The batch utilities in the evaluation are exactly the mean
	// hypothetical relative performance the paper plots.
	if mean, ok := plan.BatchUtilityMean(); ok {
		r.hypoUtil.Add(now, mean)
	}
}

// recordHypothetical computes the mean hypothetical relative performance
// for the batch workload under any policy, making policies comparable on
// the paper's metric.
func (r *Runner) recordHypothetical(now float64, live []*scheduler.Job, omegaG float64) {
	horizon := now + r.cfg.CycleSeconds
	states := make([]batch.State, 0, len(live))
	for _, j := range live {
		done := j.Done
		if j.Status == scheduler.Running && j.SpeedMHz > 0 {
			dt := r.cfg.CycleSeconds
			if j.BlockedUntil > now {
				dt -= j.BlockedUntil - now
			}
			if dt > 0 {
				done, _ = j.Spec.Advance(done, j.SpeedMHz, dt)
			}
		}
		if j.Spec.Remaining(done) > 0 {
			states = append(states, batch.State{Spec: j.Spec, Done: done})
		}
	}
	if len(states) == 0 {
		return
	}
	h, err := batch.NewHypothetical(horizon, states, nil)
	if err != nil {
		return
	}
	r.hypoUtil.Add(now, batch.Mean(h.Predict(omegaG)))
}

// Now returns the current virtual time.
func (r *Runner) Now() float64 { return r.sim.Now().Seconds() }

// Jobs returns the runtime records of all submitted jobs.
func (r *Runner) Jobs() []*scheduler.Job {
	return append([]*scheduler.Job(nil), r.submitted...)
}

// OnTimeRate returns the fraction of submitted jobs that completed by
// their deadline.
func (r *Runner) OnTimeRate() float64 {
	if len(r.submitted) == 0 {
		return 0
	}
	met := 0
	for _, j := range r.submitted {
		if j.MetGoal() {
			met++
		}
	}
	return float64(met) / float64(len(r.submitted))
}

// Cycles returns the number of control cycles executed so far.
func (r *Runner) Cycles() int64 { return r.cycles }

// TotalChanges returns the number of disruptive placement changes
// (suspends, resumes, migrations) over the run — the paper's Figure 4.
func (r *Runner) TotalChanges() int { return r.totalChanges }

// Actions returns the per-action counters.
func (r *Runner) Actions() *metrics.Counter { return r.planner.Actions() }

// HypotheticalUtility returns the mean-hypothetical-utility series
// (Figures 2 and 6).
func (r *Runner) HypotheticalUtility() *metrics.Series { return r.hypoUtil }

// BatchAllocation returns the aggregate batch CPU series (Figure 7).
func (r *Runner) BatchAllocation() *metrics.Series { return r.batchAlloc }

// WebUtility returns the utility series of web app i (Figure 6).
func (r *Runner) WebUtility(i int) *metrics.Series {
	if i < 0 || i >= len(r.webUtil) {
		return new(metrics.Series)
	}
	return r.webUtil[i]
}

// WebAllocation returns the allocation series of web app i (Figure 7).
func (r *Runner) WebAllocation(i int) *metrics.Series {
	if i < 0 || i >= len(r.webAlloc) {
		return new(metrics.Series)
	}
	return r.webAlloc[i]
}

// QueueLength returns the queued-jobs series.
func (r *Runner) QueueLength() *metrics.Series { return r.queueLen }

// CompletionUtilities returns (time, utility) samples at each job's
// completion — the "actual relative performance at completion" series of
// Figure 2.
func (r *Runner) CompletionUtilities() []metrics.Point {
	var out []metrics.Point
	for _, j := range r.submitted {
		if j.Status == scheduler.Completed {
			out = append(out, metrics.Point{
				T: j.CompletedAt,
				V: j.Spec.UtilityAtCompletion(j.CompletedAt),
			})
		}
	}
	return out
}
