package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"dynplace/internal/cluster"
	"dynplace/internal/flow"
	"dynplace/internal/rpf"
)

// Problem is the input to one APC control-cycle decision.
type Problem struct {
	// Cluster is the node inventory.
	Cluster *cluster.Cluster
	// Now is the current virtual time (start of the cycle).
	Now float64
	// Cycle is T, the control cycle length in seconds.
	Cycle float64
	// Apps are the managed applications (web apps and batch jobs).
	Apps []*Application
	// Current is the placement in effect; nil means nothing placed.
	Current *Placement
	// LastNode records, per app, the node a suspended job last ran on
	// (-1 when unknown) so resume-in-place and migration are costed
	// differently. May be nil.
	LastNode []cluster.NodeID
	// Costs is the placement-action cost model.
	Costs cluster.CostModel
	// Levels is the hypothetical-RPF sampling grid (nil = default).
	Levels []float64
	// ExactHypothetical switches the hypothetical evaluation from the
	// paper's sampled grid to exact bisection.
	ExactHypothetical bool
	// Epsilon is the utility-comparison resolution: candidate vectors
	// are quantized to multiples of Epsilon before comparison, and
	// resolution-level ties break toward fewer placement changes. Zero
	// selects DefaultEpsilon.
	Epsilon float64
	// MaxPasses bounds the optimizer's improvement sweeps. Zero selects
	// DefaultMaxPasses.
	MaxPasses int
	// Parallelism bounds the optimizer's candidate-evaluation worker
	// pool: 1 evaluates sequentially on the calling goroutine, n > 1
	// uses n workers, and 0 selects runtime.GOMAXPROCS(0). The result is
	// bit-identical at every setting — candidates are scored
	// concurrently but adopted in candidate order, so ties break toward
	// the lowest candidate index exactly as in the sequential solver.
	Parallelism int
	// VerifyIncremental cross-checks every incremental candidate
	// evaluation inside Optimize against a full Evaluate and fails the
	// optimization on any divergence. Debug mode: it re-buys the full
	// evaluation cost the incremental path exists to avoid.
	VerifyIncremental bool
}

// Defaults for the optimizer knobs.
const (
	// DefaultEpsilon is the utility-comparison resolution. It reproduces
	// the paper's preference for stability: configurations whose sampled
	// utilities tie (the worked example's P1-vs-P2 "0.7" tie) break
	// toward the one with no placement changes.
	DefaultEpsilon = 0.02
	// DefaultMaxPasses bounds improvement sweeps over the node set.
	DefaultMaxPasses = 3
)

func (p *Problem) epsilon() float64 {
	if p.Epsilon > 0 {
		return p.Epsilon
	}
	return DefaultEpsilon
}

func (p *Problem) maxPasses() int {
	if p.MaxPasses > 0 {
		return p.MaxPasses
	}
	return DefaultMaxPasses
}

func (p *Problem) parallelism() int {
	switch {
	case p.Parallelism > 0:
		return p.Parallelism
	case p.Parallelism < 0:
		// Negative values are conservatively sequential rather than
		// silently claiming every CPU.
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// ErrBadProblem reports an invalid problem definition.
var ErrBadProblem = errors.New("core: invalid problem")

// Validate checks the problem for consistency.
func (p *Problem) Validate() error {
	if p.Cluster == nil || p.Cluster.Len() == 0 {
		return fmt.Errorf("%w: empty cluster", ErrBadProblem)
	}
	if p.Cycle <= 0 {
		return fmt.Errorf("%w: cycle length must be positive", ErrBadProblem)
	}
	for i, a := range p.Apps {
		if a == nil {
			return fmt.Errorf("%w: nil app %d", ErrBadProblem, i)
		}
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if p.Current != nil && p.Current.Apps() != len(p.Apps) {
		return fmt.Errorf("%w: placement covers %d apps, have %d",
			ErrBadProblem, p.Current.Apps(), len(p.Apps))
	}
	return nil
}

// Evaluation is the outcome of assessing one candidate placement: the CPU
// distribution (load matrix L) and the predicted per-application relative
// performance.
type Evaluation struct {
	// Feasible is false when the placement violates memory or minimum
	// CPU constraints; all other fields are then zero.
	Feasible bool
	// PerApp is the total CPU (MHz) allocated to each application for
	// the next cycle.
	PerApp []float64
	// WebShares gives, for each placed web app, the per-node division of
	// its allocation, parallel to Placement.NodesOf.
	WebShares map[int][]float64
	// Utilities is the predicted relative performance per application.
	Utilities []float64
	// Vector is Utilities sorted ascending (the optimization objective).
	Vector rpf.Vector
	// OmegaG is the aggregate batch allocation Σ ω (the hypothetical
	// function's input).
	OmegaG float64
	// Probes counts the bisection feasibility probes the allocation
	// solve made for this placement, FlowSolves the max-flow runs among
	// them (plus the one that splits web shares). They are work counts,
	// set on infeasible evaluations too.
	Probes, FlowSolves int
}

const (
	levelIterations = 60
	capTolerance    = 1e-9
	probeDelta      = 1e-3
)

// allocator computes the lexicographic max-min CPU distribution for a
// fixed placement. One allocator lives in each evaluation arena and is
// re-aimed at candidate after candidate: its slices keep their storage,
// and its app- and cluster-sized vectors keep their invariants (frozen
// all false, nodeLoad all zero, hostIdx all -1) between uses because aim
// undoes exactly the entries the previous use touched.
type allocator struct {
	t  *table
	pl *Placement

	// placed apps partitioned by kind.
	jobs    []int // app indices of placed batch jobs with work left
	jobNode []int // node index per placed job (parallel to jobs)
	webs    []int // app indices of placed web apps

	// jobNodes lists the distinct nodes hosting batch jobs. Only these
	// entries of nodeLoad are ever nonzero, so capacity checks and load
	// resets touch O(jobs) entries instead of every node in the cluster.
	jobNodes []int
	// webHosts lists the distinct nodes hosting web instances (ascending)
	// and hostIdx maps a node to its position in webHosts (-1 otherwise).
	// Flow networks for multi-web routing include only these nodes: the
	// rest have no incoming edges and would only inflate the graph at
	// cluster scale. Built when len(webs) > 1.
	webHosts []int
	hostIdx  []int

	// net routes web demand when len(webs) > 1: vertex 0 is the source,
	// 1+i web app webs[i], 1+len(webs)+k web host webHosts[k], and the
	// last the sink. aim clears netBuilt; the first routing run after it
	// builds the topology into net's retained storage, and every run
	// re-capacitates it. The refs address its edges: srcRefs one per web
	// app, hostRefs one per (web app, node) in NodesOf order with the apps
	// concatenated, sinkRefs one per web host.
	net                         flow.Network
	netBuilt                    bool
	srcRefs, hostRefs, sinkRefs []flow.EdgeRef

	// frozen and fixed, indexed by app: whether the level search has
	// settled the app, and at which allocation.
	frozen []bool
	fixed  []float64

	// work counters, copied into the Evaluation.
	probes, flowSolves int

	// scratch
	jobDemand, webDemand []float64
	active, blocked      []int
	nodeLoad             []float64
	residual             []float64 // no invariant: written before read
	residents            residentIndex
}

// aim points the allocator at one placement of t's problem.
func (al *allocator) aim(t *table, pl *Placement) {
	// Undo the previous use before anything is resized.
	for _, nd := range al.jobNodes {
		al.nodeLoad[nd] = 0
	}
	for _, nd := range al.webHosts {
		al.hostIdx[nd] = -1
	}
	for _, app := range al.jobs {
		al.frozen[app] = false
	}
	for _, app := range al.webs {
		al.frozen[app] = false
	}
	al.t, al.pl = t, pl
	al.jobs, al.jobNode, al.webs = al.jobs[:0], al.jobNode[:0], al.webs[:0]
	al.jobNodes, al.webHosts = al.jobNodes[:0], al.webHosts[:0]
	al.netBuilt = false
	al.probes, al.flowSolves = 0, 0

	if len(al.frozen) < len(t.apps) {
		al.frozen = make([]bool, len(t.apps))
		al.fixed = make([]float64, len(t.apps))
	}
	if n := len(t.nodeCaps); len(al.nodeLoad) < n {
		al.nodeLoad = make([]float64, n)
		al.residual = make([]float64, n)
		al.hostIdx = make([]int, n)
		for i := range al.hostIdx {
			al.hostIdx[i] = -1
		}
	}

	for idx := range t.apps {
		nodes := pl.NodesOf(idx)
		if len(nodes) == 0 {
			continue
		}
		if t.apps[idx].web != nil {
			al.webs = append(al.webs, idx)
		} else if t.apps[idx].job.Remaining > 0 { // else nothing to run
			al.jobs = append(al.jobs, idx)
			al.jobNode = append(al.jobNode, int(nodes[0]))
		}
	}
	al.jobDemand = slices.Grow(al.jobDemand[:0], len(al.jobs))[:len(al.jobs)]
	al.webDemand = slices.Grow(al.webDemand[:0], len(al.webs))[:len(al.webs)]
	// hostIdx doubles as the "seen" marker while the distinct job nodes
	// are collected; it is restored before the web hosts claim it.
	for _, nd := range al.jobNode {
		if al.hostIdx[nd] == -1 {
			al.hostIdx[nd] = 0
			al.jobNodes = append(al.jobNodes, nd)
		}
	}
	for _, nd := range al.jobNodes {
		al.hostIdx[nd] = -1
	}
	if len(al.webs) > 1 {
		for _, app := range al.webs {
			for _, nd := range pl.NodesOf(app) {
				if al.hostIdx[nd] == -1 {
					al.hostIdx[nd] = 0
					al.webHosts = append(al.webHosts, int(nd))
				}
			}
		}
		sort.Ints(al.webHosts)
		for k, nd := range al.webHosts {
			al.hostIdx[nd] = k
		}
	}
}

// freeze settles app at the given allocation.
func (al *allocator) freeze(app int, alloc float64) {
	al.frozen[app] = true
	al.fixed[app] = alloc
}

// memoryFits reports whether every node satisfies its memory constraint
// and no anti-collocation relation is violated.
func (al *allocator) memoryFits() bool {
	t := al.t
	al.residents.build(al.pl, len(t.nodeCaps))
	for n := range t.nodeCaps {
		onNode := al.residents.on(cluster.NodeID(n))
		var mem float64
		for _, app := range onNode {
			mem += t.apps[app].mem
		}
		if mem > t.nodeMem[n]+capTolerance {
			return false
		}
		if !t.conflicts {
			continue
		}
		for i := 0; i < len(onNode); i++ {
			for j := i + 1; j < len(onNode); j++ {
				if t.conflict(onNode[i], onNode[j]) {
					return false
				}
			}
		}
	}
	return true
}

// demand returns the allocation the probe gives app: its fixed value
// when frozen, else what level u (or u+probeDelta for the raised app)
// requires.
func (al *allocator) demand(app int, u float64, raised int) float64 {
	if al.frozen[app] {
		return al.fixed[app]
	}
	if app == raised {
		u += probeDelta
	}
	return al.t.demandAt(app, u)
}

// feasible reports whether setting every unfrozen app to level u (frozen
// apps keep their fixed allocations) fits node CPU capacities. When
// raised >= 0, that app is probed at u+probeDelta instead.
func (al *allocator) feasible(u float64, raised int) bool {
	al.probes++
	nodeCaps := al.t.nodeCaps
	// Only nodes hosting jobs ever accumulate load; resetting and
	// checking just those keeps each probe independent of cluster size.
	for _, nd := range al.jobNodes {
		al.nodeLoad[nd] = 0
	}
	// Batch jobs are pinned: accumulate directly.
	for k, app := range al.jobs {
		d := al.demand(app, u, raised)
		al.jobDemand[k] = d
		al.nodeLoad[al.jobNode[k]] += d
	}
	tol := capTolerance * 1000
	for _, nd := range al.jobNodes {
		if al.nodeLoad[nd] > nodeCaps[nd]+tol {
			return false
		}
	}
	if len(al.webs) == 0 {
		return true
	}
	// Web demands route through their placed nodes.
	var totalWeb float64
	for i, app := range al.webs {
		al.webDemand[i] = al.demand(app, u, raised)
		totalWeb += al.webDemand[i]
	}
	if len(al.webs) == 1 {
		var residual float64
		for _, n := range al.pl.NodesOf(al.webs[0]) {
			r := nodeCaps[n] - al.nodeLoad[n]
			if r > 0 {
				residual += r
			}
		}
		return al.webDemand[0] <= residual+tol
	}
	// General case: bipartite feasibility by max-flow.
	routed, err := al.routeWeb(al.webDemand)
	if err != nil {
		return false
	}
	return routed >= totalWeb-tol
}

// routeWeb routes web demands (parallel to webs) through node residuals
// after the job loads in nodeLoad and returns the total routed.
func (al *allocator) routeWeb(webDemand []float64) (float64, error) {
	residual, nodeCaps := al.residual, al.t.nodeCaps
	for _, nd := range al.webHosts {
		residual[nd] = nodeCaps[nd] - al.nodeLoad[nd]
	}
	if err := al.capacitate(webDemand, residual); err != nil {
		return 0, err
	}
	al.flowSolves++
	return al.net.MaxFlow(0, al.net.Size()-1)
}

// buildNet builds the routing network's topology for the aimed placement
// with every capacity zero. Edge order is what the flow arithmetic
// depends on: per web app its source edge and then its host edges, then
// one sink edge per web host. Only nodes hosting web instances can carry
// flow; the rest would be isolated vertices, so the network stays small
// even on clusters of thousands of nodes.
func (al *allocator) buildNet() {
	g, apps := &al.net, len(al.webs)
	n := 2 + apps + len(al.webHosts)
	g.Clear(n)
	// AddEdge cannot fail here: every vertex is in range, no edge is a
	// self-loop, and zero is a valid capacity.
	add := func(u, v int) flow.EdgeRef {
		ref, _ := g.AddEdge(u, v, 0)
		return ref
	}
	al.srcRefs, al.hostRefs, al.sinkRefs = al.srcRefs[:0], al.hostRefs[:0], al.sinkRefs[:0]
	for i, app := range al.webs {
		al.srcRefs = append(al.srcRefs, add(0, 1+i))
		for _, nd := range al.pl.NodesOf(app) {
			al.hostRefs = append(al.hostRefs, add(1+i, 1+apps+al.hostIdx[nd]))
		}
	}
	for k := range al.webHosts {
		al.sinkRefs = append(al.sinkRefs, add(1+apps+k, n-1))
	}
	al.netBuilt = true
}

// capacitate readies the routing network for one run, building it first
// if aim has re-pointed the allocator since the last build: web app
// webs[i]'s source and host edges take demand[i], web host nd's sink edge
// takes max(0, residual[nd]), and every flow is zeroed. A capacity the
// network rejects (NaN, negative, infinite) is an error naming the app or
// node it came from.
func (al *allocator) capacitate(demand, residual []float64) error {
	if !al.netBuilt {
		al.buildNet()
	}
	g, h := &al.net, 0
	for i, app := range al.webs {
		if err := g.SetCapacity(al.srcRefs[i], demand[i]); err != nil {
			return fmt.Errorf("core: web share of %q: %w", al.t.p.Apps[app].Name, err)
		}
		for range al.pl.NodesOf(app) {
			if err := g.SetCapacity(al.hostRefs[h], demand[i]); err != nil {
				return fmt.Errorf("core: web share of %q: %w", al.t.p.Apps[app].Name, err)
			}
			h++
		}
	}
	for k, nd := range al.webHosts {
		if err := g.SetCapacity(al.sinkRefs[k], max(0, residual[nd])); err != nil {
			return fmt.Errorf("core: web residual of node %d: %w", nd, err)
		}
	}
	g.Reset()
	return nil
}

// solve runs the lexicographic max-min level search and returns the
// per-app allocations, or feasibleOK=false. skipMemCheck elides the full
// per-node memory/anti-collocation scan: the incremental evaluation path
// has already verified the nodes the candidate touches against a
// known-feasible base placement. perApp and shares are freshly
// allocated; everything else the search needs is the allocator's own.
func (al *allocator) solve(skipMemCheck bool) (perApp []float64, shares map[int][]float64, feasibleOK bool, err error) {
	if !skipMemCheck && !al.memoryFits() {
		return nil, nil, false, nil
	}
	// The floor level must fit (minimum speeds and frozen demands).
	if !al.feasible(rpf.MinUtility, -1) {
		return nil, nil, false, nil
	}
	t := al.t
	active := append(append(al.active[:0], al.jobs...), al.webs...)
	al.active = active
	unfrozenCount := len(active)

	for rounds := 0; unfrozenCount > 0 && rounds <= len(active)+1; rounds++ {
		// Bisect the highest common feasible level for unfrozen apps.
		lo, hi := rpf.MinUtility, 1.0
		if al.feasible(hi, -1) {
			lo = hi
		} else {
			for i := 0; i < levelIterations; i++ {
				mid := lo + (hi-lo)/2
				if al.feasible(mid, -1) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		level := lo
		// Freeze apps that reached their achievable cap.
		newlyFrozen := 0
		for _, app := range active {
			if al.frozen[app] {
				continue
			}
			if capU := t.utilityCap(app); capU <= level+capTolerance {
				al.freeze(app, t.demandAt(app, capU))
				newlyFrozen++
				unfrozenCount--
			}
		}
		if unfrozenCount == 0 {
			break
		}
		// Freeze apps blocked by capacity: a probe at level+δ fails.
		blocked := al.blocked[:0]
		for _, app := range active {
			if al.frozen[app] {
				continue
			}
			if !al.feasible(level, app) {
				blocked = append(blocked, app)
			}
		}
		al.blocked = blocked
		for _, app := range blocked {
			al.freeze(app, t.demandAt(app, level))
			newlyFrozen++
			unfrozenCount--
		}
		if newlyFrozen == 0 {
			// Numeric corner: nothing distinguishable; freeze everything
			// at the found level.
			for _, app := range active {
				if !al.frozen[app] {
					al.freeze(app, t.demandAt(app, level))
					unfrozenCount--
				}
			}
		}
	}

	perApp = make([]float64, len(t.apps))
	for _, app := range active {
		if al.frozen[app] {
			perApp[app] = al.fixed[app]
		}
	}
	shares, err = al.distributeWeb(perApp)
	if err != nil {
		return nil, nil, false, err
	}
	return perApp, shares, true, nil
}

// distributeWeb splits each web app's total allocation across its nodes,
// honoring node residual capacity after job allocations. A capacity the
// flow network rejects (NaN, negative, infinite) is an error, not a
// feasible evaluation with a share missing.
func (al *allocator) distributeWeb(perApp []float64) (map[int][]float64, error) {
	if len(al.webs) == 0 {
		return nil, nil
	}
	shares := make(map[int][]float64, len(al.webs))
	// Node residuals after the jobs, for the nodes that are read: the
	// capacity first, then the jobs subtracted in job order.
	residual, nodeCaps := al.residual, al.t.nodeCaps
	for _, nd := range al.jobNodes {
		residual[nd] = nodeCaps[nd]
	}
	for _, app := range al.webs {
		for _, nd := range al.pl.NodesOf(app) {
			residual[nd] = nodeCaps[nd]
		}
	}
	for k, app := range al.jobs {
		residual[al.jobNode[k]] -= perApp[app]
	}
	if len(al.webs) == 1 {
		app := al.webs[0]
		nodes := al.pl.NodesOf(app)
		out := make([]float64, len(nodes))
		remaining := perApp[app]
		for i, nd := range nodes {
			take := math.Min(remaining, math.Max(0, residual[nd]))
			out[i] = take
			remaining -= take
			if remaining <= capTolerance {
				break
			}
		}
		shares[app] = out
		return shares, nil
	}
	// Multiple web apps: route with max-flow and read each share back from
	// its host edge. webDemand is probe scratch; here it carries the
	// allocations in webs order.
	for i, app := range al.webs {
		al.webDemand[i] = perApp[app]
	}
	if err := al.capacitate(al.webDemand, residual); err != nil {
		return nil, err
	}
	al.flowSolves++
	if _, err := al.net.MaxFlow(0, al.net.Size()-1); err != nil {
		return nil, fmt.Errorf("core: web shares: %w", err)
	}
	h := 0
	for _, app := range al.webs {
		out := make([]float64, len(al.pl.NodesOf(app)))
		for s := range out {
			out[s] = al.net.Flow(al.hostRefs[h])
			h++
		}
		shares[app] = out
	}
	return shares, nil
}
