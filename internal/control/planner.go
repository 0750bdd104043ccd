package control

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/forecast"
	"dynplace/internal/metrics"
	"dynplace/internal/obs"
	"dynplace/internal/scheduler"
	"dynplace/internal/shard"
	"dynplace/internal/txn"
)

// Planner is the controller's whole state and its one control step,
// with no clock and no I/O. It owns the web-application set with their
// pending load phases, the job ledger with every job name ever
// submitted, the lifetime action counters and the placement carried
// between cycles. A cycle at time now is Advance (observe), PlanTraced
// (decide) and Apply (act); FailNode is the one node-failure path. The simulated Runner and the live daemon
// both drive exactly these calls — the Runner schedules them on virtual
// time, the daemon on a clock, wrapped in journaling and publishing — so
// the control logic exercised in simulation is the logic serving real
// traffic.
//
// A Planner is not safe for concurrent use; drivers serialize access.
type Planner struct {
	// inv is the live node inventory the planner replans against: every
	// Plan call observes the inventory's current version, so nodes can
	// join, drain, fail or leave between cycles and the next decision
	// reflects it.
	inv   *cluster.Inventory
	costs cluster.CostModel
	// solver builds and solves each cycle's placement problem; it
	// carries the optimizer tuning and, when sharding is on, the zone
	// coordinator.
	solver *solver

	webApps      []*txn.App
	webPlacement [][]cluster.NodeID
	// phases holds each web app's pending load phases, parallel to
	// webApps; Advance applies and drops them as they begin.
	phases [][]LoadPhase

	// jobs is the job ledger: every submitted job not yet retired, in
	// submission order.
	jobs []*scheduler.Job
	// jobNames holds every job name ever submitted, retired or not;
	// unlike the ledger it grows only by a small string per submission.
	jobNames map[string]bool
	// actions accumulates lifetime placement-action totals.
	actions *metrics.Counter

	// fc estimates per-app demand when forecast-driven control is on
	// (DynamicConfig.Forecast non-nil); nil keeps the reactive loop and
	// every forecasting call site a no-op.
	fc *forecast.Set

	// infeasibleCycles counts Plan calls that failed because no feasible
	// placement exists (core.ErrInfeasible) — the signal that the
	// cluster is overcommitted rather than the input malformed.
	infeasibleCycles int

	// prevUtil is the previous successful cycle's utility per
	// application name — the baseline PlanExplanation utility deltas are
	// computed against. Maintained only when DynamicConfig.Explain is
	// set.
	prevUtil map[string]float64
}

// NewPlanner prepares a planner for the given inventory, cost model and
// optimizer tuning.
func NewPlanner(cl *cluster.Cluster, costs cluster.CostModel, dyn DynamicConfig) (*Planner, error) {
	if cl == nil || cl.Len() == 0 {
		return nil, fmt.Errorf("%w: empty cluster", ErrBadConfig)
	}
	return RestorePlanner(cluster.NewInventory(cl), costs, dyn)
}

// RestorePlanner prepares a planner around an existing (typically
// recovered) inventory instead of a fresh cluster. Unlike NewPlanner it
// accepts an empty inventory — a restored registry may legitimately
// have lost every node, which Plan reports as infeasibility rather
// than a configuration error.
func RestorePlanner(inv *cluster.Inventory, costs cluster.CostModel, dyn DynamicConfig) (*Planner, error) {
	if inv == nil {
		return nil, fmt.Errorf("%w: nil inventory", ErrBadConfig)
	}
	s, err := newSolver(dyn)
	if err != nil {
		return nil, err
	}
	p := &Planner{
		inv:      inv,
		costs:    costs,
		solver:   s,
		jobNames: make(map[string]bool),
		actions:  metrics.NewCounter(),
	}
	if dyn.Forecast != nil {
		p.fc = forecast.NewSet(*dyn.Forecast)
	}
	return p, nil
}

// ShardStats returns the per-zone stats of the most recent sharded
// cycle, or nil when sharding is off.
func (p *Planner) ShardStats() []shard.Stats {
	if p.solver.coord == nil {
		return nil
	}
	return p.solver.coord.Stats()
}

// AddWebApp registers a transactional application with the controller. The
// app joins the optimization at the next Plan call.
func (p *Planner) AddWebApp(app *txn.App) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if p.appIndex(app.Name) >= 0 {
		return fmt.Errorf("%w: duplicate web app %q", ErrBadConfig, app.Name)
	}
	p.webApps = append(p.webApps, app)
	p.webPlacement = append(p.webPlacement, nil)
	p.phases = append(p.phases, nil)
	return nil
}

// RemoveWebApp drops the named application and its placement. It reports
// whether the app was registered.
func (p *Planner) RemoveWebApp(name string) bool {
	i := p.appIndex(name)
	if i < 0 {
		return false
	}
	p.webApps = append(p.webApps[:i], p.webApps[i+1:]...)
	p.webPlacement = append(p.webPlacement[:i], p.webPlacement[i+1:]...)
	p.phases = append(p.phases[:i], p.phases[i+1:]...)
	p.fc.Remove(name)
	return true
}

// appIndex returns the named application's registration index, or -1.
func (p *Planner) appIndex(name string) int {
	return slices.IndexFunc(p.webApps, func(w *txn.App) bool { return w.Name == name })
}

// WebApps returns the registered applications in registration order. The
// returned slice is a copy; the apps themselves are shared.
func (p *Planner) WebApps() []*txn.App {
	out := make([]*txn.App, len(p.webApps))
	copy(out, p.webApps)
	return out
}

// WebApp returns the named application, if registered.
func (p *Planner) WebApp(name string) (*txn.App, bool) {
	if i := p.appIndex(name); i >= 0 {
		return p.webApps[i], true
	}
	return nil, false
}

// SetArrivalRate updates the named application's request arrival rate λ —
// the sensor input the controller reacts to at its next cycle. Rate 0 is
// valid and quiesces the app: it keeps its registration but demands no
// CPU until a later rate change revives it. Negative and non-finite
// (NaN/Inf) rates are rejected: a NaN arrival rate would poison every
// demand term the optimizer derives from it.
// It reports whether the app was registered and the rate applied.
func (p *Planner) SetArrivalRate(name string, rate float64) bool {
	w, ok := p.WebApp(name)
	if !ok || !validRate(rate) {
		return false
	}
	w.ArrivalRate = rate
	return true
}

func validRate(rate float64) bool { return rate >= 0 && !math.IsInf(rate, 1) }

// ObserveLoad feeds one timestamped arrival-rate observation to the
// demand estimator, so the forecaster learns at full sensor cadence, not
// just once per cycle. The daemon calls it for every load report it
// receives; scheduled load phases are not fed to it (the estimator sees
// them through the per-cycle observation in PlanTraced). A no-op when
// forecasting is off or the app is unknown.
func (p *Planner) ObserveLoad(name string, rate, now float64) {
	if p.fc == nil {
		return
	}
	if _, ok := p.WebApp(name); !ok {
		return
	}
	p.fc.Observe(name, now, rate)
}

// ForecastEnabled reports whether forecast-driven control is active.
func (p *Planner) ForecastEnabled() bool { return p.fc != nil }

// ForecastConfig returns the estimator configuration in effect (zero
// value when forecasting is off).
func (p *Planner) ForecastConfig() forecast.Config { return p.fc.Config() }

// ForecastStats returns the named application's estimator scorecard.
// ok is false when forecasting is off or the app has never been
// observed.
func (p *Planner) ForecastStats(name string) (forecast.Stats, bool) {
	if p.fc == nil {
		return forecast.Stats{}, false
	}
	return p.fc.Stats(name)
}

// ForecastRate projects the named application's arrival rate horizon
// seconds past now. ok is false when forecasting is off or the
// estimator has no observations yet.
func (p *Planner) ForecastRate(name string, now, horizon float64) (float64, bool) {
	if p.fc == nil {
		return 0, false
	}
	return p.fc.Forecast(name, now, horizon)
}

// Inventory exposes the planner's live node registry. Mutating it (add,
// drain, fail, remove) takes effect at the next Plan call. For node
// failures use FailNode, which evicts the node's jobs at the failure
// instant: failing a node directly through the inventory leaves its
// jobs formally Running until the next Plan, so any progress they are
// advanced by in the meantime is credited as if the node were still
// alive — Plan's rescue backstop can recover the placement, but it
// cannot reconstruct the failure instant after the fact.
func (p *Planner) Inventory() *cluster.Inventory { return p.inv }

// AddNode registers a fresh active node under n.ID, which
// Inventory().NextNode chose; the next Plan call offers its capacity to
// the optimizer.
func (p *Planner) AddNode(n cluster.Node) error {
	return p.inv.Add(n)
}

// DrainNode marks a node as draining: from the next cycle on it receives
// no new placements and the work it hosts is migrated off live (no
// suspend, no lost progress). Existing placements are left in place so
// they keep serving until the replan moves them.
func (p *Planner) DrainNode(id cluster.NodeID) error {
	n, ok := p.inv.Node(id)
	if !ok {
		return fmt.Errorf("%w: no node %d", ErrBadConfig, id)
	}
	_, err := p.inv.Drain(n.Name)
	return err
}

// FailNode records an abrupt node loss at instant now: the node's
// capacity stops being offered to the optimizer, web instances placed on
// it are evicted, and the ledger's jobs on it are advanced to the failure
// instant and evicted (progress intact, rescue pending), each counted as
// a suspend. It returns the evicted jobs.
func (p *Planner) FailNode(id cluster.NodeID, now float64) []*scheduler.Job {
	// A stale ID (node already removed) still evicts local placements.
	_ = p.inv.FailID(id)
	p.evictWeb(id)
	var evicted []*scheduler.Job
	for _, j := range p.jobs {
		if j.Node != id {
			continue
		}
		j.AdvanceTo(now)
		if j.Status != scheduler.Completed {
			j.Evict()
			evicted = append(evicted, j)
		}
	}
	if len(evicted) > 0 {
		p.actions.Inc(scheduler.ActionSuspend, len(evicted))
	}
	return evicted
}

// RemoveNode deregisters a node entirely. Web instances still placed on
// it are evicted (callers should normally drain or fail the node first).
func (p *Planner) RemoveNode(id cluster.NodeID) error {
	n, ok := p.inv.Node(id)
	if !ok {
		return fmt.Errorf("%w: no node %d", ErrBadConfig, id)
	}
	if _, err := p.inv.Remove(n.Name); err != nil {
		return err
	}
	p.evictWeb(id)
	return nil
}

// WebInstancesOn counts the web-application instances currently placed
// on the node — the occupancy signal drain/remove guards consult.
func (p *Planner) WebInstancesOn(id cluster.NodeID) int {
	count := 0
	for _, nodes := range p.webPlacement {
		for _, nd := range nodes {
			if nd == id {
				count++
			}
		}
	}
	return count
}

func (p *Planner) evictWeb(id cluster.NodeID) {
	for i, nodes := range p.webPlacement {
		keep := nodes[:0]
		for _, nd := range nodes {
			if nd != id {
				keep = append(keep, nd)
			}
		}
		p.webPlacement[i] = keep
	}
}

// InfeasibleCycles returns how many Plan calls failed with
// core.ErrInfeasible over the planner's lifetime. Drivers surface it in
// their cycle metrics so a persistently overcommitted cluster is
// visible rather than silently retried.
func (p *Planner) InfeasibleCycles() int { return p.infeasibleCycles }

// RestoreInfeasibleCycles reinstates the lifetime infeasible-cycle
// counter after a recovery, so the metric spans restarts.
func (p *Planner) RestoreInfeasibleCycles(n int) {
	if n > 0 {
		p.infeasibleCycles = n
	}
}

// WebPlacement returns the carried placement of the named application as
// inventory node IDs — the state the optimizer's change-resistance
// (keep-current-on-tie) depends on, which durable drivers journal so a
// restarted controller does not gratuitously reshuffle instances.
func (p *Planner) WebPlacement(name string) ([]cluster.NodeID, bool) {
	if i := p.appIndex(name); i >= 0 {
		return append([]cluster.NodeID(nil), p.webPlacement[i]...), true
	}
	return nil, false
}

// RestoreWebPlacement reinstates the named application's carried
// placement from recovered state. Node IDs that no longer resolve in
// the inventory are dropped at the next Plan call, exactly as with live
// churn. It reports whether the app was registered.
func (p *Planner) RestoreWebPlacement(name string, nodes []cluster.NodeID) bool {
	i := p.appIndex(name)
	if i < 0 {
		return false
	}
	p.webPlacement[i] = append([]cluster.NodeID(nil), nodes...)
	return true
}

// WebInstance is one placed instance of a web application in a Plan.
type WebInstance struct {
	// Node identifies the hosting node (original cluster numbering).
	Node cluster.NodeID
	// PowerMHz is the CPU share this instance receives — the dispatch
	// weight the request router should use.
	PowerMHz float64
}

// Plan is one cycle's placement decision.
type Plan struct {
	// Web holds, per registered web app (registration order), the placed
	// instances with their per-node CPU shares.
	Web [][]WebInstance
	// WebAllocMHz is each web app's aggregate allocation.
	WebAllocMHz []float64
	// WebUtilities is each web app's predicted relative performance.
	WebUtilities []float64
	// WebPredictedRate is the per-app arrival rate the optimizer solved
	// against when forecast-driven control produced this plan (the
	// predicted next-cycle demand); nil under reactive control.
	WebPredictedRate []float64
	// Assignments directs the live batch jobs; jobs without an entry are
	// to be suspended. Apply them with scheduler.Apply.
	Assignments []scheduler.Assignment
	// BatchUtilities is the predicted relative performance of each live
	// job, parallel to the live slice passed to Plan.
	BatchUtilities []float64
	// OmegaG is the aggregate CPU devoted to batch work.
	OmegaG float64
	// Changes counts instance-level placement differences the optimizer
	// introduced relative to the carried placement.
	Changes int
	// Shards holds the per-zone solve stats when the sharded coordinator
	// produced this plan; nil for a flat solve.
	Shards []shard.Stats
	// InventoryVersion is the node-inventory version this plan was
	// computed against, so consumers can tell a decision made before a
	// topology change from one made after it.
	InventoryVersion int64
	// Explanation is the cycle's decision provenance, present when
	// DynamicConfig.Explain is set: per-application outcome, binding
	// constraint and reason chain (see PlanExplanation).
	Explanation *PlanExplanation
}

// BatchUtilityMean returns the mean predicted relative performance over
// the batch workload (the paper's hypothetical-utility series), or 0 with
// ok=false when no jobs were live.
func (pl *Plan) BatchUtilityMean() (float64, bool) {
	if len(pl.BatchUtilities) == 0 {
		return 0, false
	}
	var sum float64
	for _, u := range pl.BatchUtilities {
		sum += u
	}
	return sum / float64(len(pl.BatchUtilities)), true
}

// Plan runs one control-cycle optimization at time now over the
// registered web apps and the given live (submitted, incomplete) jobs —
// normally the set Advance(now) returned. Jobs must already be advanced
// to now. The chosen web placement is persisted inside the planner so
// the next cycle starts from it; the returned batch assignments take
// effect through Apply.
func (p *Planner) Plan(now, cycle float64, live []*scheduler.Job) (*Plan, error) {
	return p.PlanTraced(now, cycle, live, nil)
}

// PlanTraced is Plan with cycle tracing: each pipeline stage
// (inventory snapshot, problem build, solve — decomposed into
// rebalance, per-zone solves and merge when sharding is on — and
// result extraction) is recorded as a span on ct. A nil trace records
// nothing and costs nothing beyond a few branch checks.
func (p *Planner) PlanTraced(now, cycle float64, live []*scheduler.Job, ct *obs.CycleTrace) (*Plan, error) {
	// Placeable nodes (active state), in inventory order. Draining nodes
	// are deliberately excluded: the replan places nothing new on them
	// and live-migrates whatever they still host, which is exactly the
	// graceful-drain contract.
	endInv := ct.Span("inventory_snapshot")
	version := p.inv.Version()
	invNodes := p.inv.Nodes()
	offered := make([]cluster.Node, 0, len(invNodes))
	for _, n := range invNodes {
		if n.State == cluster.NodeActive {
			offered = append(offered, n.Node)
		}
	}

	// Rescue jobs stranded on vanished capacity before planning: a job
	// whose node failed or was removed requeues as Suspended (progress
	// intact, Evicted mark set) instead of keeping a dangling Node. Jobs
	// on draining nodes are still genuinely running and are migrated
	// live by the plan instead. This is a backstop — drivers that learn
	// of a failure at a known instant should AdvanceTo and Evict the
	// job then (see Inventory), because here the failure time is gone.
	for _, j := range live {
		if j.Node == scheduler.NoNode {
			continue
		}
		i, known := slices.BinarySearchFunc(invNodes, j.Node, func(n cluster.InventoryNode, id cluster.NodeID) int {
			return cmp.Compare(n.ID, id)
		})
		if !known || invNodes[i].State == cluster.NodeFailed {
			j.Evict()
		}
	}
	endInv()

	nWeb := len(p.webApps)
	plan := &Plan{
		Web:              make([][]WebInstance, nWeb),
		WebAllocMHz:      make([]float64, nWeb),
		WebUtilities:     make([]float64, nWeb),
		BatchUtilities:   make([]float64, len(live)),
		InventoryVersion: version,
	}
	if nWeb+len(live) == 0 {
		return plan, nil
	}
	if len(offered) == 0 {
		// Work exists but no node can take it: the cluster is
		// (transiently) overcommitted to the extreme. Report it as the
		// infeasibility it is so drivers surface a degraded state.
		p.infeasibleCycles++
		return nil, fmt.Errorf("%w: no active nodes in inventory (version %d)",
			core.ErrInfeasible, version)
	}

	// Forecast-driven demand: observe each app's current rate (the
	// once-per-cycle floor of the estimator's diet — ObserveLoad adds
	// the irregular sensor inputs between cycles), then substitute the
	// predicted next-cycle rate for the observed one in the problem the
	// optimizer solves. The registry apps are never mutated; the
	// optimizer sees shallow copies carrying the prediction, so
	// snapshots and the API keep reporting observed demand.
	web := p.webApps
	if p.fc != nil {
		endFc := ct.Span("forecast")
		web = make([]*txn.App, nWeb)
		plan.WebPredictedRate = make([]float64, nWeb)
		for i, w := range p.webApps {
			p.fc.Observe(w.Name, now, w.ArrivalRate)
			pred, ok := p.fc.Forecast(w.Name, now, cycle)
			if !ok {
				pred = w.ArrivalRate
			}
			plan.WebPredictedRate[i] = pred
			p.fc.NotePrediction(w.Name, now+cycle, pred, w.ArrivalRate)
			web[i] = w
			if pred != w.ArrivalRate {
				cp := *w
				cp.ArrivalRate = pred
				web[i] = &cp
			}
		}
		endFc()
	}

	sol, err := p.solver.solve(ct, now, cycle, p.costs, offered, web, p.webPlacement, live)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			p.infeasibleCycles++
		}
		return nil, err
	}

	endExtract := ct.Span("extract")
	defer endExtract()
	res, ids := sol.res, sol.ids
	// Persist web placement and report instances with their shares.
	for i := range p.webApps {
		nodes := res.Placement.NodesOf(i)
		shares := res.Eval.WebShares[i]
		orig := make([]cluster.NodeID, 0, len(nodes))
		instances := make([]WebInstance, 0, len(nodes))
		for k, nd := range nodes {
			orig = append(orig, ids[nd])
			in := WebInstance{Node: ids[nd]}
			if k < len(shares) {
				in.PowerMHz = shares[k]
			}
			instances = append(instances, in)
		}
		p.webPlacement[i] = orig
		plan.Web[i] = instances
		plan.WebAllocMHz[i] = res.Eval.PerApp[i]
		plan.WebUtilities[i] = res.Eval.Utilities[i]
	}
	copy(plan.BatchUtilities, res.Eval.Utilities[nWeb:])
	plan.Assignments = sol.assignments()
	plan.OmegaG = res.Eval.OmegaG
	plan.Changes = res.Changes
	plan.Shards = sol.shards
	if p.solver.dyn.Explain {
		endExplain := ct.Span("explain")
		plan.Explanation = p.explain(sol.problem, res)
		endExplain()
	}
	return plan, nil
}
