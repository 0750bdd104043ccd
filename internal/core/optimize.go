package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// Result is the outcome of one placement optimization.
type Result struct {
	// Placement is the chosen placement for the next cycle.
	Placement *Placement
	// Eval is the evaluation of the chosen placement.
	Eval *Evaluation
	// Changes counts instance-level differences from the input placement.
	Changes int
	// CandidatesEvaluated counts the placement evaluations consumed by
	// the decision sequence. Speculative evaluations the parallel
	// pipeline discards are excluded, so the value is identical at
	// every Parallelism setting.
	CandidatesEvaluated int
	// Probes and FlowSolves sum Evaluation.Probes and FlowSolves over the
	// same replayed evaluations CandidatesEvaluated counts, so they too
	// are identical at every Parallelism setting: the solver's work in
	// units that do not depend on the machine.
	Probes, FlowSolves int
	// Repaired reports that the input placement violated constraints
	// (e.g. after a node loss) and instances were evicted to recover.
	Repaired bool
}

// ErrInfeasible reports that no feasible placement exists for the
// problem — even after repair evicted instances, some constraint (node
// memory, a batch job's minimum speed, or a placed web application's
// λ·c stability demand) cannot be met. It wraps ErrBadProblem, so
// existing errors.Is(err, ErrBadProblem) checks keep matching.
var ErrInfeasible = fmt.Errorf("%w: placement infeasible", ErrBadProblem)

// Optimize runs the APC placement algorithm for one control cycle: the
// paper's three nested loops. The outer loop visits nodes; for each node
// an intermediate loop removes placed instances one by one (most
// satisfied first), and an inner loop re-places the neediest unplaced
// applications into the space opened up. A candidate is adopted only if
// it improves the sorted utility vector by more than epsilon, which
// both enforces the extended max-min objective and minimizes placement
// churn.
//
// Candidate evaluation is embarrassingly parallel — every candidate is
// scored against the same problem state — so candidates are fanned out
// to a bounded worker pool (Problem.Parallelism) and the adoption
// decisions are replayed sequentially in candidate order. The chosen
// placement is therefore bit-identical to the sequential solver's at
// any parallelism level.
func Optimize(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	current := p.Current
	if current == nil {
		current = NewPlacement(len(p.Apps))
	} else {
		current = current.Clone()
	}
	repaired, err := repair(p, current)
	if err != nil {
		return nil, err
	}

	res := &Result{Repaired: repaired}
	pool := newEvalPool(p.parallelism())
	defer pool.close()
	// The constants table is built once, into the calling goroutine's
	// arena, and only read from here on — by every worker.
	t := &pool.own.tbl
	t.build(p)
	ctx := &evalContext{t: t}
	ctx.rebase(current, nil)
	best, err := ctx.evaluate(pool.own, current)
	if err != nil {
		return nil, err
	}
	res.count(best)
	if !best.Feasible {
		return nil, fmt.Errorf("%w even after repair", ErrInfeasible)
	}
	ctx.hints = best.brackets

	eps := p.epsilon()
	bestQ := best.Vector.Quantize(eps)
	var counts []int
	var flat []*Placement
	for pass := 0; pass < p.maxPasses(); pass++ {
		improved := false
		// Web cluster sizing: a transactional application below its λ·c
		// stability knee gains nothing from a single instance, so the
		// per-node loop alone cannot bootstrap it. Dedicated expansion
		// candidates add instances across several nodes at once.
		webCands := ctx.webExpansionCandidates(best)
		evs, err := pool.evalAll(ctx, webCands)
		if err != nil {
			return nil, err
		}
		adopted := false
		for i, cand := range webCands {
			ev := evs[i]
			res.count(ev)
			if !ev.Feasible {
				continue
			}
			if q := ev.Vector.Quantize(eps); bestQ.Less(q) {
				current, best, bestQ = cand, ev, q
				improved, adopted = true, true
			}
		}
		if adopted {
			ctx.rebase(current, best.brackets)
		}
		// The per-node loop is sequential by construction — each node's
		// candidates are generated against the incumbent chosen so far —
		// but while no candidate is adopted the incumbent does not move,
		// so candidate sets for a whole window of upcoming nodes can be
		// generated speculatively and scored as one large batch. On
		// adoption the unreplayed tail of the window is stale and is
		// discarded (those nodes are revisited against the new
		// incumbent), so the decision sequence is exactly the sequential
		// solver's; speculation only changes how much scoring overlaps.
		//
		// The window is adaptive: one node after an adoption (no wasted
		// work while the incumbent is moving every node), doubling while
		// adoptions stay absent (deep batches once the placement has
		// converged, which is where most of a pass's nodes are).
		windowMax := 1
		if pool.workers > 1 {
			windowMax = 8 * pool.workers
		}
		windowTarget := 1
		for n := 0; n < p.Cluster.Len(); {
			counts, flat = counts[:0], flat[:0]
			for m := n; m < p.Cluster.Len() && (m == n || len(flat) < windowTarget); m++ {
				before := len(flat)
				flat = ctx.candidatesForNode(best, cluster.NodeID(m), flat)
				counts = append(counts, len(flat)-before)
			}
			evs, err := pool.evalAll(ctx, flat)
			if err != nil {
				return nil, err
			}
			adopted := false
			off := 0
			for _, count := range counts {
				cands := flat[off : off+count]
				nodeEvs := evs[off : off+count]
				off += count
				// The counters book only replayed evaluations: the window
				// tail discarded after an adoption is scored again next
				// iteration, so the totals match the sequential solver's
				// at every Parallelism.
				for _, ev := range nodeEvs {
					res.count(ev)
				}
				n++
				var bestCand *Placement
				var bestEval *Evaluation
				var bestCandQ rpf.Vector
				for i, cand := range cands {
					ev := nodeEvs[i]
					if !ev.Feasible {
						continue
					}
					q := ev.Vector.Quantize(eps)
					// A candidate must improve on the incumbent placement at
					// the comparison resolution. Candidates that disturb
					// placed instances (suspend or migrate) must additionally
					// show a raw improvement of at least one resolution step:
					// a quantization-boundary crossing alone never justifies
					// interrupting running work.
					if !bestQ.Less(q) {
						continue
					}
					if disturbs(current, cand) && !ev.Vector.ImprovesOn(best.Vector, eps) {
						continue
					}
					switch {
					case bestEval == nil:
						bestCand, bestEval, bestCandQ = cand, ev, q
					case bestCandQ.Less(q):
						bestCand, bestEval, bestCandQ = cand, ev, q
					case q.Compare(bestCandQ) == 0 &&
						cand.Changes(current) < bestCand.Changes(current):
						// Resolution-level tie: prefer the less disruptive
						// configuration.
						bestCand, bestEval, bestCandQ = cand, ev, q
					}
				}
				if bestCand != nil {
					current, best, bestQ = bestCand, bestEval, bestCandQ
					improved = true
					adopted = true
					ctx.rebase(current, best.brackets)
					break // rest of the window is stale
				}
			}
			if adopted {
				windowTarget = 1
			} else if windowTarget < windowMax {
				windowTarget *= 2
			}
		}
		if !improved {
			break
		}
	}

	res.Placement = current
	res.Eval = best
	if p.Current != nil {
		res.Changes = current.Changes(p.Current)
	} else {
		res.Changes = current.Changes(NewPlacement(len(p.Apps)))
	}
	return res, nil
}

// count books one replayed evaluation into the result's work counters.
func (r *Result) count(ev *Evaluation) {
	r.CandidatesEvaluated++
	r.Probes += ev.Probes
	r.FlowSolves += ev.FlowSolves
}

// genScratch is the candidate generators' reusable storage. It belongs
// to the goroutine running Optimize.
type genScratch struct {
	onNode  []int     // the visited node's residents, most satisfied first
	addable []int     // applications that could gain an instance there
	need    []float64 // per addable app: its utility at the comparison resolution
	picks   []int     // the greedy fill at the current removal depth
}

// candidatesForNode appends to out the intermediate-loop configurations
// for one node: for k = 0..(instances on node), remove the k
// most-satisfied instances, then greedily add the neediest unplaced
// applications that fit the freed memory.
func (c *evalContext) candidatesForNode(best *Evaluation, node cluster.NodeID, out []*Placement) []*Placement {
	t, g := c.t, &c.gen
	if node < 0 || int(node) >= len(t.nodeCaps) {
		return out
	}
	// Most satisfied first: removing them frees room for the needy.
	g.onNode = append(g.onNode[:0], c.residents.on(node)...)
	slices.SortFunc(g.onNode, func(a, b int) int {
		if c := cmp.Compare(best.Utilities[b], best.Utilities[a]); c != 0 {
			return c
		}
		return a - b
	})
	addable := c.addableApps(best, node)

	base := c.base
	for k := 0; k <= len(g.onNode); k++ {
		if k > 0 {
			if k == 1 {
				base = base.Clone()
			}
			base.Remove(g.onNode[k-1], node)
			// Pure removal (suspension) frees CPU for the remaining
			// residents even when nothing is added back.
			out = append(out, base.Clone())
		}
		// Inner loop: place the neediest unplaced (or migratable)
		// applications. A full greedy fill can overshoot (e.g. moving
		// every job onto this node), so generate one candidate per
		// additive prefix: add 1, then 2, ... of the applications the
		// fill would take. The fill decides each application from the
		// ones before it alone, so its prefixes are the fills of smaller
		// budgets and it is computed once per removal depth.
		picks := c.greedyFill(node, g.onNode[:k], addable)
		for adds := 1; adds <= len(picks); adds++ {
			cand := base.Clone()
			for _, idx := range picks[:adds] {
				if t.p.Apps[idx].Kind == KindBatch && cand.Placed(idx) {
					// Single-instance job placed elsewhere: adding it here
					// is a migration.
					cand.Clear(idx)
				}
				cand.Add(idx, node)
			}
			out = append(out, cand)
		}
	}
	return out
}

// maxAddsPerNode bounds the additive prefix sweep per candidate node. The
// paper's experiments fit at most three jobs and one web instance per
// node, so four prefixes cover every useful configuration.
const maxAddsPerNode = 4

// greedyFill picks up to maxAddsPerNode applications from addable (in
// order) that the node can take once the removed residents are gone:
// each must fit the memory left by the residents and the earlier picks,
// and conflict with none of them.
func (c *evalContext) greedyFill(node cluster.NodeID, removed, addable []int) []int {
	t, g := c.t, &c.gen
	residents := c.residents.on(node)
	var used float64
	for _, app := range residents {
		if !slices.Contains(removed, app) {
			used += t.apps[app].mem
		}
	}
	picks := g.picks[:0]
	for _, idx := range addable {
		if len(picks) >= maxAddsPerNode {
			break
		}
		mem := t.apps[idx].mem
		if used+mem > t.nodeMem[node]+capTolerance {
			continue
		}
		if t.conflicts {
			clash := false
			for _, other := range residents {
				clash = clash || (!slices.Contains(removed, other) && t.conflict(idx, other))
			}
			for _, other := range picks {
				clash = clash || t.conflict(idx, other)
			}
			if clash {
				continue
			}
		}
		picks = append(picks, idx)
		used += mem
	}
	g.picks = picks
	return picks
}

// disturbs reports whether the candidate removes or moves any instance
// present in the incumbent placement (pure additions return false).
func disturbs(current, cand *Placement) bool {
	for app := 0; app < current.Apps(); app++ {
		for _, nd := range current.NodesOf(app) {
			if !cand.Has(app, nd) {
				return true
			}
		}
	}
	return false
}

// webExpansionCandidates builds, for every web application short of its
// utility cap, a candidate that replicates it across nodes with free
// memory until the hosting nodes' combined CPU covers its maximum useful
// demand.
func (c *evalContext) webExpansionCandidates(best *Evaluation) []*Placement {
	t := c.t
	var out []*Placement
	for idx := range t.apps {
		ac := &t.apps[idx]
		if ac.web == nil || best.Utilities[idx] >= ac.webCap-capTolerance {
			continue
		}
		var hostCPU float64
		for _, nd := range c.base.NodesOf(idx) {
			hostCPU += t.nodeCaps[nd]
		}
		var cand *Placement
		for n := 0; n < len(t.nodeCaps) && hostCPU < ac.webMax; n++ {
			node := cluster.NodeID(n)
			if c.residents.has(node, idx) || !t.p.Apps[idx].allows(node) {
				continue
			}
			// The candidate differs from the base only in this app's
			// instances, so a node it is not on has the base's residents.
			mem, clash := 0.0, false
			for _, other := range c.residents.on(node) {
				mem += t.apps[other].mem
				clash = clash || t.conflict(idx, other)
			}
			if clash || mem+ac.mem > t.nodeMem[n]+capTolerance {
				continue
			}
			if cand == nil {
				cand = c.base.Clone()
			}
			cand.Add(idx, node)
			hostCPU += t.nodeCaps[n]
		}
		if cand != nil {
			out = append(out, cand)
		}
	}
	return out
}

// addableApps lists applications that could gain an instance on the node,
// ordered by ascending current utility (neediest first).
func (c *evalContext) addableApps(best *Evaluation, node cluster.NodeID) []int {
	t, g := c.t, &c.gen
	eps := t.p.epsilon()
	g.need = slices.Grow(g.need[:0], len(t.apps))[:len(t.apps)]
	out := g.addable[:0]
	for idx, a := range t.p.Apps {
		if !a.allows(node) || c.residents.has(node, idx) {
			continue
		}
		need := math.Floor(best.Utilities[idx] / eps)
		switch a.Kind {
		case KindBatch:
			if t.apps[idx].job.Remaining <= 0 {
				continue
			}
			// A job placed on another node is still "addable" here: a
			// batch job holds a single instance, so placing it on this
			// node is a migration. But a placed job already achieving
			// its cap at the comparison resolution (running flat out)
			// cannot be helped by moving.
			if c.base.Placed(idx) && need >= math.Floor(t.apps[idx].job.UtilityCap/eps) {
				continue
			}
		case KindWeb:
			// Skip web apps already at their utility cap: another
			// instance cannot help.
			if best.Utilities[idx] >= t.apps[idx].webCap-capTolerance {
				continue
			}
		default:
			continue
		}
		g.need[idx] = need
		out = append(out, idx)
	}
	// Order by need at the comparison resolution. The hypothetical RPF
	// equalizes utilities across the batch workload, so raw values tie
	// only up to numeric noise; comparing quantized values lets the
	// deliberate tie-breaks apply: start unplaced work before migrating
	// placed work.
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(g.need[a], g.need[b]); c != 0 {
			return c
		}
		if pa, pb := c.base.Placed(a), c.base.Placed(b); pa != pb {
			if pb {
				return -1
			}
			return 1
		}
		return a - b
	})
	g.addable = out
	return out
}

// repair evicts instances until the placement satisfies memory and
// minimum-speed constraints on every node — the recovery path after a
// node disappears or an application's footprint grows. It returns whether
// anything was evicted.
func repair(p *Problem, pl *Placement) (bool, error) {
	repaired := false
	// Drop instances referencing nodes outside the cluster.
	for app := 0; app < pl.Apps(); app++ {
		for _, nd := range append([]cluster.NodeID(nil), pl.NodesOf(app)...) {
			if _, ok := p.Cluster.Node(nd); !ok {
				pl.Remove(app, nd)
				repaired = true
			}
		}
	}
	for n := 0; n < p.Cluster.Len(); n++ {
		node, _ := p.Cluster.Node(cluster.NodeID(n))
		for {
			var mem, minCPU float64
			apps := pl.OnNode(node.ID)
			conflicted := false
			for i, app := range apps {
				mem += p.Apps[app].MemoryMB()
				if p.Apps[app].Kind == KindBatch {
					minCPU += p.Apps[app].Job.MinSpeedAt(p.Apps[app].Done)
				}
				for _, other := range apps[i+1:] {
					if conflictsWith(p.Apps[app], p.Apps[other]) {
						conflicted = true
					}
				}
			}
			if mem <= node.MemMB+capTolerance && minCPU <= node.CPUMHz+capTolerance && !conflicted {
				break
			}
			if len(apps) == 0 {
				return repaired, fmt.Errorf("%w: node %d overloaded with no instances", ErrInfeasible, n)
			}
			// Evict the largest-footprint instance, batch before web.
			evict := apps[0]
			for _, app := range apps[1:] {
				ei, ai := p.Apps[evict], p.Apps[app]
				if (ai.Kind == KindBatch && ei.Kind == KindWeb) ||
					(ai.Kind == ei.Kind && ai.MemoryMB() > ei.MemoryMB()) {
					evict = app
				}
			}
			pl.Remove(evict, node.ID)
			repaired = true
		}
	}
	return repaired, nil
}
