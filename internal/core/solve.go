package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// solve made for this placement, FlowSolves its max-flow runs: the
	// probes the cut condition left inside its rounding band (or that
	// route more than six web apps), plus the one that splits web
	// shares. They are work counts, set on infeasible evaluations too, and
	// smaller for Optimize's candidates, whose level searches start from
	// the incumbent's.
	Probes, FlowSolves int

	// brackets are the level searches' final brackets
	// (allocator.brackets), kept on Optimize's feasible candidates so an
	// adopted one seeds the next candidates' searches.
	brackets [][2]float64
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

	// The cut test (cutDecide) settles most multi-web probes without the
	// network. Index an app set by a bitmask over webs. aim clears
	// cutBuilt; the first multi-web probe after it fills cutFree, per app
	// set, the summed capacity of the web hosts that carry exactly that
	// set and no batch job (their residual is their capacity at every
	// probe), cutJobs, the web hosts that do carry a job, and cutEdges,
	// the routing network's edge count. cutSum and cutDemand are probe
	// scratch, one entry per app set, and cutHostSet buildCut's, one per
	// web host.
	cutBuilt                   bool
	cutFree, cutSum, cutDemand []float64
	cutJobs                    []cutHost
	cutHostSet                 []int
	cutEdges                   int
	// cutErr is the first disagreement VerifyIncremental's cross-check
	// (checkCut) found between a cut decision and the max-flow;
	// arena.evaluate returns it.
	cutErr error

	// frozen and fixed, indexed by app: whether the level search has
	// settled the app, and at which allocation.
	frozen []bool
	fixed  []float64

	// work counters, copied into the Evaluation.
	probes, flowSolves int

	// brackets records each level search's final (lo, hi), or (1, 1)
	// when level 1 was feasible, one per call since aim; hints, when
	// set, are another placement's brackets that the searches of the
	// same index start from (see level).
	brackets, hints [][2]float64

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
	al.netBuilt, al.cutBuilt, al.cutErr = false, false, nil
	al.probes, al.flowSolves = 0, 0
	al.brackets, al.hints = al.brackets[:0], nil

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
		if nd := cluster.NodeID(n); !t.fits(nd, al.residents.on(nd)) {
			return false
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
	// General case: bipartite feasibility, from the cut condition where
	// it settles the probe, else by max-flow.
	if len(al.webs) <= maxCutWebs {
		if ok, decided := al.cutDecide(totalWeb, tol); decided {
			if cutFault != nil && cutFault() {
				ok = !ok
			}
			if al.t.p.VerifyIncremental {
				al.checkCut(ok, u, raised, totalWeb, tol)
			}
			return ok
		}
	}
	return al.routes(totalWeb, tol)
}

// routes reports whether the max-flow routes the probe's web demands
// (webDemand, summing to totalWeb) to within tol.
func (al *allocator) routes(totalWeb, tol float64) bool {
	routed, err := al.routeWeb(al.webDemand)
	if err != nil {
		return false
	}
	return routed >= totalWeb-tol
}

// maxCutWebs bounds the web applications whose probes cutDecide settles:
// its work grows as k·2^k in their number k, so above it every
// multi-web probe runs the max-flow.
const maxCutWebs = 6

// routeEps is the flow package's eps, the smallest residual capacity
// Dinic's search follows; cutDecide's bound is written in it.
// TestRouteEpsIsFlowEps pins the two together.
const routeEps = 1e-9

// cutFault, when a test sets it, is asked at every probe cutDecide
// settles and inverts the decision when it returns true: the one way to
// make a wrong decision reach VerifyIncremental's cross-check.
var cutFault func() bool

// cutHost is a web host that carries a batch job: its node and the set of
// web apps it hosts.
type cutHost struct{ node, set int }

// cutDecide settles a multi-web probe from the supply–demand cut
// condition when that provably gives routes' answer, and reports
// decided=false when the probe must run the max-flow.
//
// The routing network (buildNet) sends each web app's demand d_i from
// the source through the app to its hosts, and host n passes at most
// c_n = max(0, cap_n − load_n) to the sink. Every edge out of an app has
// the app's own demand as capacity, so a minimum cut keeps some app set
// S on the source side together with its hosts N(S), and the maximum
// flow is D − max(0, excess) (Gale 1957), where D = Σ d_i and
//
//	excess = max over nonempty S of Σ_{i∈S} d_i − Σ_{n∈N(S)} c_n.
//
// The probe computes excess from per-set host capacities in
// O(job hosts + k·2^k), and decides when it is at least b clear of the
// band where float arithmetic could tip routes' comparison
// routed ≥ totalWeb − tol:
//
//   - b = routeEps·m + ρ, with m the network's edges. ρ = 4u(H+k+2)(D+C),
//     u = 2⁻⁵³, bounds the rounding of the sums in excess and of totalWeb:
//     each per-set capacity sum adds nonnegative terms of at most H web
//     hosts (C their total capacity) in at most H+k roundings, and N(S)'s
//     is the difference of two such sums; each demand sum, totalWeb
//     included, rounds at most k−1 times; the final subtraction once.
//     First-order that is within (2H+3k+2)u(D+C), so the exact excess of
//     the capacities the network is given lies within ρ of the computed
//     one.
//   - excess > tol + b: the exact maximum flow is below D − tol − routeEps·m,
//     so routes, whose flow cannot exceed it, reports false.
//   - excess < −b: let X be the vertices Dinic still reaches from the
//     source when it stops, through edges of residual above routeEps.
//     Edges leaving X then carry at least their capacity less routeEps
//     and edges entering it at most routeEps, so the flow value is at
//     least cap(X) − routeEps·m. If X holds an app set S′ whose hosts all
//     lie in X, cap(X) ≥ D − Σ_{S′} d_i + c(N(S′)) > D + routeEps·m,
//     more than any flow of value ≤ D can leave: impossible. Otherwise
//     every app has its source edge, or an edge to a host, leaving X, so
//     the flow is at least D − k·routeEps, and routes reports true (tol
//     is 1e-6, k·routeEps at most 6e-9).
//
// Both cases take Dinic's flows as the exact sums of its pushes; their
// own rounding, a half ulp of D per push, is what the margins routeEps·m
// and tol − k·routeEps absorb. VerifyIncremental re-runs the max-flow for
// every probe decided here (checkCut). Probes between the two bounds,
// which include the level search's last rungs, and any with a demand or
// capacity that is not finite and nonnegative run the max-flow, as
// before.
func (al *allocator) cutDecide(totalWeb, tol float64) (ok, decided bool) {
	if !al.cutBuilt {
		al.buildCut()
	}
	full := len(al.cutSum) - 1
	sum, nodeCaps := al.cutSum, al.t.nodeCaps
	copy(sum, al.cutFree)
	for _, h := range al.cutJobs {
		sum[h.set] += max(0, nodeCaps[h.node]-al.nodeLoad[h.node])
	}
	// Subset sums: sum[m] becomes the capacity of the hosts whose app set
	// lies within m, so N(S) has sum[full] − sum[full^S].
	for bit := 1; bit <= full; bit <<= 1 {
		for m := range sum {
			if m&bit != 0 {
				sum[m] += sum[m^bit]
			}
		}
	}
	capTotal := sum[full]
	if !(capTotal <= math.MaxFloat64 && totalWeb <= math.MaxFloat64) {
		return false, false // NaN or +Inf
	}
	for _, d := range al.webDemand {
		if !(d >= 0) {
			return false, false // NaN or negative
		}
	}
	dem := al.cutDemand
	for s := 1; s <= full; s++ {
		dem[s] = dem[s&(s-1)] + al.webDemand[bits.TrailingZeros(uint(s))]
	}
	excess := math.Inf(-1)
	for s := 1; s <= full; s++ {
		excess = max(excess, dem[s]-(capTotal-sum[full^s]))
	}
	b := routeEps*float64(al.cutEdges) +
		0x1p-51*float64(len(al.webHosts)+len(al.webs)+2)*(totalWeb+capTotal)
	switch {
	case excess > tol+b:
		return false, true
	case excess < -b:
		return true, true
	}
	return false, false
}

// buildCut fills cutDecide's tables for the aimed placement.
func (al *allocator) buildCut() {
	sets := 1 << len(al.webs)
	al.cutFree = slices.Grow(al.cutFree[:0], sets)[:sets]
	al.cutSum = slices.Grow(al.cutSum[:0], sets)[:sets]
	al.cutDemand = slices.Grow(al.cutDemand[:0], sets)[:sets]
	clear(al.cutFree)
	al.cutDemand[0] = 0
	// Each web host's app set; the bit above every set marks a host that
	// carries a job.
	hostSet := slices.Grow(al.cutHostSet[:0], len(al.webHosts))[:len(al.webHosts)]
	clear(hostSet)
	al.cutHostSet = hostSet
	al.cutEdges = len(al.webs) + len(al.webHosts)
	for i, app := range al.webs {
		nodes := al.pl.NodesOf(app)
		al.cutEdges += len(nodes)
		for _, nd := range nodes {
			hostSet[al.hostIdx[nd]] |= 1 << i
		}
	}
	for _, nd := range al.jobNodes {
		if h := al.hostIdx[nd]; h >= 0 {
			hostSet[h] |= sets
		}
	}
	al.cutJobs = al.cutJobs[:0]
	for h, nd := range al.webHosts {
		if set := hostSet[h]; set&sets != 0 {
			al.cutJobs = append(al.cutJobs, cutHost{node: nd, set: set &^ sets})
		} else {
			al.cutFree[set] += max(0, al.t.nodeCaps[nd])
		}
	}
	al.cutBuilt = true
}

// checkCut is VerifyIncremental's cross-check of one probe cutDecide
// settled: the max-flow must agree. It does not count as a flow solve, so
// the work counts are those of an unchecked run.
func (al *allocator) checkCut(ok bool, u float64, raised int, totalWeb, tol float64) {
	solves := al.flowSolves
	want := al.routes(totalWeb, tol)
	al.flowSolves = solves
	if want != ok && al.cutErr == nil {
		al.cutErr = fmt.Errorf("core: cut condition decided %v where the max-flow routes %v (level %v, raised app %d)",
			ok, want, u, raised)
	}
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

// level is the highest utility level every unfrozen app can reach at
// once, the frozen ones held at their fixed demands: 1 if that is
// feasible, else the feasible end of levelIterations halvings of
// [rpf.MinUtility, 1], which the caller has checked is feasible. Explain's
// probeUtility calls it too, so an explanation reports a level found the
// way solve finds its own, to the same precision.
//
// Every app's demandAt at a level u ≤ t.monotoneTo is at most its
// demandAt at any level above u (only an unbounded web app's curve bends
// back, and above monotoneTo), and rounding keeps the node sums monotone.
// So a probe at a feasible level f settles every level ≤ min(f,
// monotoneTo), and one at an infeasible level g ≤ monotoneTo every level
// ≥ g. The search uses that to skip probes without changing its answer:
// it first probes a ladder around hints[r], the bracket another
// placement's r-th search ended with — a candidate usually shares the
// incumbent's level bit for bit — and then replays the bisection,
// probing only the midpoints the ladder left open. The (lo, hi)
// sequence, and so the result, is the unhinted search's whatever the
// hints hold; they only change how many of its levelIterations+1 probes
// are made, plus at most six ladder probes.
func (al *allocator) level() float64 {
	top := al.t.monotoneTo
	f, g := rpf.MinUtility, math.Inf(1) // known feasible, known infeasible
	probe := func(u float64) bool {
		if al.feasible(u, -1) {
			f = max(f, u)
			return true
		}
		if u <= top {
			g = u
		}
		return false
	}
	if r := len(al.brackets); r < len(al.hints) {
		hl, hh := al.hints[r][0], al.hints[r][1]
		for _, h := range [...]float64{hl, hh, hl - probeDelta, hh + probeDelta, hl - 1, hh + 1} {
			// Probe only rungs the search has not settled and that it
			// could ask about: none lies above 1. This also skips NaN.
			if h > f && h < g && h <= 1 {
				probe(h)
			}
		}
	}
	test := func(u float64) bool {
		switch {
		case u <= f && u <= top:
			return true
		case u >= g:
			return false
		}
		return probe(u)
	}
	lo, hi := rpf.MinUtility, 1.0
	if test(hi) {
		al.brackets = append(al.brackets, [2]float64{hi, hi})
		return hi
	}
	for i := 0; i < levelIterations; i++ {
		mid := lo + (hi-lo)/2
		if test(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	al.brackets = append(al.brackets, [2]float64{lo, hi})
	return lo
}

// solve runs the lexicographic max-min level search and returns the
// per-app allocations, or feasibleOK=false. skipMemCheck elides the full
// per-node memory/anti-collocation scan, for Optimize's candidates: their
// generators build them to fit (table.fits). perApp and shares are freshly
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
		level := al.level()
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
