package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

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

// jobSpeedCap returns the per-cycle allocation ceiling for a placed job:
// the current stage's maximum speed. Stage transitions within the cycle
// are handled by the stage-aware progress model, which wastes any excess
// over a later stage's cap — the price of cycle-granular control.
func jobSpeedCap(a *Application) float64 {
	return a.Job.MaxSpeedAt(a.Done)
}

// allocator computes the lexicographic max-min CPU distribution for a
// fixed placement.
type allocator struct {
	p  *Problem
	pl *Placement

	nodeCaps []float64
	// placed apps partitioned by kind.
	jobs    []int // app indices of placed batch jobs
	jobNode []int // node index per placed job (parallel to jobs)
	webs    []int // app indices of placed web apps

	// jobNodes lists the distinct nodes hosting batch jobs. Only these
	// entries of nodeLoad are ever nonzero, so capacity checks and load
	// resets touch O(jobs) entries instead of every node in the cluster.
	jobNodes []int
	// webHosts lists the distinct nodes hosting web instances (ascending)
	// and webHostIdx maps a node to its position in webHosts (-1
	// otherwise). Flow networks for multi-web routing include only these
	// nodes: the rest have no incoming edges and would only inflate the
	// graph at cluster scale. Built when len(webs) > 1.
	webHosts   []int
	webHostIdx []int

	// skipMemCheck elides the full per-node memory/anti-collocation scan:
	// the incremental evaluation path has already verified the nodes the
	// candidate touches against a known-feasible base placement.
	skipMemCheck bool

	frozen map[int]bool
	fixed  map[int]float64 // allocation of frozen apps

	// work counters, copied into the Evaluation.
	probes, flowSolves int

	// scratch
	jobDemand []float64
	nodeLoad  []float64
	scratch   *allocScratch
}

// allocScratch holds the allocator's cluster-sized scratch vectors.
// They are recycled through a pool so the thousands of candidate
// evaluations of one optimization pass do not each allocate (and the GC
// sweep) O(cluster) memory. Invariants between uses: nodeLoad all zero,
// seen all false, hostIdx all -1 — restored cheaply on release by
// undoing only the entries this use touched.
type allocScratch struct {
	nodeLoad []float64
	seen     []bool
	hostIdx  []int
	residual []float64 // no invariant: fully overwritten before use
}

// allocScratchPools holds one sync.Pool per cluster size, so problems
// of different sizes (the scale sweep, a daemon, tests) interleave
// without evicting each other's scratch.
var allocScratchPools sync.Map // int -> *sync.Pool

func scratchPoolFor(n int) *sync.Pool {
	if p, ok := allocScratchPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := allocScratchPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

func getAllocScratch(n int) *allocScratch {
	if s, ok := scratchPoolFor(n).Get().(*allocScratch); ok {
		return s
	}
	s := &allocScratch{
		nodeLoad: make([]float64, n),
		seen:     make([]bool, n),
		hostIdx:  make([]int, n),
		residual: make([]float64, n),
	}
	for i := range s.hostIdx {
		s.hostIdx[i] = -1
	}
	return s
}

// release restores the scratch invariants and returns it to the pool.
// The allocator must not be used afterwards.
func (al *allocator) release() {
	s := al.scratch
	if s == nil {
		return
	}
	for _, nd := range al.jobNodes {
		s.nodeLoad[nd] = 0
	}
	for _, nd := range al.webHosts {
		s.hostIdx[nd] = -1
	}
	al.scratch, al.nodeLoad, al.webHostIdx = nil, nil, nil
	scratchPoolFor(len(s.nodeLoad)).Put(s)
}

// newAllocator prepares the solver for one placement. caps, when
// non-nil, is a borrowed per-node CPU capacity vector (read-only) so the
// many evaluations of one optimization step share a single allocation.
func newAllocator(p *Problem, pl *Placement, caps []float64) *allocator {
	al := &allocator{
		p:      p,
		pl:     pl,
		frozen: make(map[int]bool),
		fixed:  make(map[int]float64),
	}
	if caps != nil {
		al.nodeCaps = caps
	} else {
		al.nodeCaps = make([]float64, p.Cluster.Len())
		for i, n := range p.Cluster.Nodes() {
			al.nodeCaps[i] = n.CPUMHz
		}
	}
	for idx, a := range p.Apps {
		nodes := pl.NodesOf(idx)
		if len(nodes) == 0 {
			continue
		}
		switch a.Kind {
		case KindBatch:
			if a.Job.Remaining(a.Done) <= 0 {
				continue // nothing to run
			}
			al.jobs = append(al.jobs, idx)
			al.jobNode = append(al.jobNode, int(nodes[0]))
		case KindWeb:
			al.webs = append(al.webs, idx)
		}
	}
	al.jobDemand = make([]float64, len(al.jobs))
	al.scratch = getAllocScratch(len(al.nodeCaps))
	al.nodeLoad = al.scratch.nodeLoad
	seen := al.scratch.seen
	for _, nd := range al.jobNode {
		if !seen[nd] {
			seen[nd] = true
			al.jobNodes = append(al.jobNodes, nd)
		}
	}
	for _, nd := range al.jobNodes {
		seen[nd] = false // restore the scratch invariant
	}
	if len(al.webs) > 1 {
		al.webHostIdx = al.scratch.hostIdx
		for _, app := range al.webs {
			for _, nd := range pl.NodesOf(app) {
				if al.webHostIdx[nd] == -1 {
					al.webHostIdx[nd] = 0
					al.webHosts = append(al.webHosts, int(nd))
				}
			}
		}
		sort.Ints(al.webHosts)
		for k, nd := range al.webHosts {
			al.webHostIdx[nd] = k
		}
	}
	return al
}

// capUtility returns the highest utility level the app can use.
func (al *allocator) capUtility(app int) float64 {
	a := al.p.Apps[app]
	if a.Kind == KindWeb {
		return a.Web.UtilityCap()
	}
	return a.Job.UtilityCap(a.Done, al.p.Now)
}

// demandAt returns the CPU the app needs to reach level u (clamped to its
// achievable cap and speed limits, floored by the job's minimum speed).
func (al *allocator) demandAt(app int, u float64) float64 {
	a := al.p.Apps[app]
	if a.Kind == KindWeb {
		capU := a.Web.UtilityCap()
		if u > capU {
			u = capU
		}
		return a.Web.Demand(u)
	}
	capU := a.Job.UtilityCap(a.Done, al.p.Now)
	var d float64
	if u >= capU {
		// At the achievable cap the job runs flat out: allocate the
		// current stage's full speed (the fluid average would under-buy
		// a fast stage ahead of a slow one).
		d = jobSpeedCap(a)
	} else {
		d, _ = a.Job.RequiredSpeed(u, a.Done, al.p.Now)
		if maxSpeed := jobSpeedCap(a); d > maxSpeed {
			d = maxSpeed
		}
	}
	if minSpeed := a.Job.MinSpeedAt(a.Done); d < minSpeed {
		d = minSpeed
	}
	return d
}

// memoryFits reports whether every node satisfies its memory constraint
// and no anti-collocation relation is violated.
func (al *allocator) memoryFits() bool {
	for n := range al.nodeCaps {
		onNode := al.pl.OnNode(cluster.NodeID(n))
		var mem float64
		for _, app := range onNode {
			mem += al.p.Apps[app].MemoryMB()
		}
		node, _ := al.p.Cluster.Node(cluster.NodeID(n))
		if mem > node.MemMB+capTolerance {
			return false
		}
		for i := 0; i < len(onNode); i++ {
			for j := i + 1; j < len(onNode); j++ {
				if conflictsWith(al.p.Apps[onNode[i]], al.p.Apps[onNode[j]]) {
					return false
				}
			}
		}
	}
	return true
}

// feasible reports whether setting every unfrozen app to level u (frozen
// apps keep their fixed allocations) fits node CPU capacities. When
// raised >= 0, that app is probed at u+probeDelta instead.
func (al *allocator) feasible(u float64, raised int) bool {
	al.probes++
	// Only nodes hosting jobs ever accumulate load; resetting and
	// checking just those keeps each probe independent of cluster size.
	for _, nd := range al.jobNodes {
		al.nodeLoad[nd] = 0
	}
	// Batch jobs are pinned: accumulate directly.
	for k, app := range al.jobs {
		var d float64
		if al.frozen[app] {
			d = al.fixed[app]
		} else {
			lv := u
			if app == raised {
				lv = u + probeDelta
			}
			d = al.demandAt(app, lv)
		}
		al.jobDemand[k] = d
		al.nodeLoad[al.jobNode[k]] += d
	}
	tol := capTolerance * 1000
	for _, nd := range al.jobNodes {
		if al.nodeLoad[nd] > al.nodeCaps[nd]+tol {
			return false
		}
	}
	if len(al.webs) == 0 {
		return true
	}
	// Web demands route through their placed nodes.
	webDemand := make([]float64, len(al.webs))
	var totalWeb float64
	for i, app := range al.webs {
		if al.frozen[app] {
			webDemand[i] = al.fixed[app]
		} else {
			lv := u
			if app == raised {
				lv = u + probeDelta
			}
			webDemand[i] = al.demandAt(app, lv)
		}
		totalWeb += webDemand[i]
	}
	if len(al.webs) == 1 {
		var residual float64
		for _, n := range al.pl.NodesOf(al.webs[0]) {
			r := al.nodeCaps[n] - al.nodeLoad[n]
			if r > 0 {
				residual += r
			}
		}
		return webDemand[0] <= residual+tol
	}
	// General case: bipartite feasibility by max-flow.
	routed, err := al.routeWeb(webDemand)
	if err != nil {
		return false
	}
	return routed >= totalWeb-tol
}

// routeWeb routes web demands through node residuals (after job loads in
// nodeLoad) and returns the total routed. Shares, when requested, are
// written per app in the order of NodesOf.
func (al *allocator) routeWeb(webDemand []float64) (float64, error) {
	// Only nodes hosting web instances can carry flow; nodes outside
	// webHosts would be isolated vertices, so the network stays small
	// even on clusters of thousands of nodes.
	n := 2 + len(al.webs) + len(al.webHosts)
	g := flow.NewNetwork(n)
	src, sink := 0, n-1
	appVertex := func(i int) int { return 1 + i }
	nodeVertex := func(nd int) int { return 1 + len(al.webs) + al.webHostIdx[nd] }
	for i, app := range al.webs {
		if _, err := g.AddEdge(src, appVertex(i), webDemand[i]); err != nil {
			return 0, err
		}
		for _, nd := range al.pl.NodesOf(app) {
			if _, err := g.AddEdge(appVertex(i), nodeVertex(int(nd)), webDemand[i]); err != nil {
				return 0, err
			}
		}
	}
	for _, nd := range al.webHosts {
		r := al.nodeCaps[nd] - al.nodeLoad[nd]
		if r < 0 {
			r = 0
		}
		if _, err := g.AddEdge(nodeVertex(nd), sink, r); err != nil {
			return 0, err
		}
	}
	al.flowSolves++
	return g.MaxFlow(src, sink)
}

// solve runs the lexicographic max-min level search and returns the
// per-app allocations, or feasible=false.
func (al *allocator) solve() (perApp []float64, shares map[int][]float64, feasibleOK bool) {
	if !al.skipMemCheck && !al.memoryFits() {
		return nil, nil, false
	}
	// The floor level must fit (minimum speeds and frozen demands).
	if !al.feasible(rpf.MinUtility, -1) {
		return nil, nil, false
	}
	unfrozenCount := len(al.jobs) + len(al.webs)
	active := make([]int, 0, unfrozenCount)
	for _, app := range al.jobs {
		active = append(active, app)
	}
	for _, app := range al.webs {
		active = append(active, app)
	}

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
			if al.capUtility(app) <= level+capTolerance {
				al.frozen[app] = true
				al.fixed[app] = al.demandAt(app, al.capUtility(app))
				newlyFrozen++
				unfrozenCount--
			}
		}
		if unfrozenCount == 0 {
			break
		}
		// Freeze apps blocked by capacity: a probe at level+δ fails.
		blocked := make([]int, 0)
		for _, app := range active {
			if al.frozen[app] {
				continue
			}
			if !al.feasible(level, app) {
				blocked = append(blocked, app)
			}
		}
		for _, app := range blocked {
			al.frozen[app] = true
			al.fixed[app] = al.demandAt(app, level)
			newlyFrozen++
			unfrozenCount--
		}
		if newlyFrozen == 0 {
			// Numeric corner: nothing distinguishable; freeze everything
			// at the found level.
			for _, app := range active {
				if !al.frozen[app] {
					al.frozen[app] = true
					al.fixed[app] = al.demandAt(app, level)
					unfrozenCount--
				}
			}
		}
	}

	perApp = make([]float64, len(al.p.Apps))
	for app, alloc := range al.fixed {
		perApp[app] = alloc
	}
	shares = al.distributeWeb(perApp)
	return perApp, shares, true
}

// distributeWeb splits each web app's total allocation across its nodes,
// honoring node residual capacity after job allocations.
func (al *allocator) distributeWeb(perApp []float64) map[int][]float64 {
	shares := make(map[int][]float64, len(al.webs))
	if len(al.webs) == 0 {
		return shares
	}
	residual := al.scratch.residual
	copy(residual, al.nodeCaps)
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
		return shares
	}
	// Multiple web apps: route with max-flow and read back edge flows.
	// As in routeWeb, only web-hosting nodes appear in the network.
	n := 2 + len(al.webs) + len(al.webHosts)
	g := flow.NewNetwork(n)
	src, sink := 0, n-1
	type edgeKey struct{ app, slot int }
	refs := make(map[edgeKey]flow.EdgeRef)
	for i, app := range al.webs {
		if _, err := g.AddEdge(src, 1+i, perApp[app]); err != nil {
			continue
		}
		for s, nd := range al.pl.NodesOf(app) {
			ref, err := g.AddEdge(1+i, 1+len(al.webs)+al.webHostIdx[nd], perApp[app])
			if err != nil {
				continue
			}
			refs[edgeKey{app: i, slot: s}] = ref
		}
	}
	for _, nd := range al.webHosts {
		r := math.Max(0, residual[nd])
		if _, err := g.AddEdge(1+len(al.webs)+al.webHostIdx[nd], sink, r); err != nil {
			continue
		}
	}
	al.flowSolves++
	if _, err := g.MaxFlow(src, sink); err != nil {
		return shares
	}
	for i, app := range al.webs {
		nodes := al.pl.NodesOf(app)
		out := make([]float64, len(nodes))
		for s := range nodes {
			if ref, ok := refs[edgeKey{app: i, slot: s}]; ok {
				out[s] = g.Flow(ref)
			}
		}
		shares[app] = out
	}
	return shares
}
