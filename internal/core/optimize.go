package core

import (
	"fmt"
	"math"
	"sort"

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
	var pool *evalPool
	if workers := p.parallelism(); workers > 1 {
		pool = newEvalPool(workers)
		defer pool.close()
	}
	ctx := newEvalContext(p, current)
	best, err := ctx.evaluate(current)
	if err != nil {
		return nil, err
	}
	res.count(best)
	if !best.Feasible {
		return nil, fmt.Errorf("%w even after repair", ErrInfeasible)
	}

	eps := p.epsilon()
	bestQ := best.Vector.Quantize(eps)
	for pass := 0; pass < p.maxPasses(); pass++ {
		improved := false
		// Web cluster sizing: a transactional application below its λ·c
		// stability knee gains nothing from a single instance, so the
		// per-node loop alone cannot bootstrap it. Dedicated expansion
		// candidates add instances across several nodes at once.
		webCands := webExpansionCandidates(p, current, best)
		evs, err := pool.evalAll(ctx, webCands)
		if err != nil {
			return nil, err
		}
		for _, ev := range evs {
			res.count(ev)
		}
		adopted := false
		for i, cand := range webCands {
			ev := evs[i]
			if !ev.Feasible {
				continue
			}
			if q := ev.Vector.Quantize(eps); bestQ.Less(q) {
				current, best, bestQ = cand, ev, q
				improved, adopted = true, true
			}
		}
		if adopted {
			ctx = newEvalContext(p, current)
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
		if pool != nil {
			windowMax = 8 * pool.workers
		}
		windowTarget := 1
		for n := 0; n < p.Cluster.Len(); {
			windowNodes := 0
			var counts []int
			var flat []*Placement
			for m := n; m < p.Cluster.Len() && (m == n || len(flat) < windowTarget); m++ {
				cands := candidatesForNode(p, current, best, cluster.NodeID(m))
				counts = append(counts, len(cands))
				flat = append(flat, cands...)
				windowNodes++
			}
			evs, err := pool.evalAll(ctx, flat)
			if err != nil {
				return nil, err
			}
			adopted := false
			off := 0
			for w := 0; w < windowNodes; w++ {
				cands := flat[off : off+counts[w]]
				nodeEvs := evs[off : off+counts[w]]
				off += counts[w]
				// CandidatesEvaluated counts only replayed evaluations:
				// the window tail discarded after an adoption is scored
				// again next iteration, so the total matches the
				// sequential solver's at every Parallelism.
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
					ctx = newEvalContext(p, current)
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

// candidatesForNode generates the intermediate-loop configurations for
// one node: for k = 0..(instances on node), remove the k most-satisfied
// instances, then greedily add the neediest unplaced applications that
// fit the freed memory.
func candidatesForNode(p *Problem, current *Placement, best *Evaluation, node cluster.NodeID) []*Placement {
	nd, ok := p.Cluster.Node(node)
	if !ok {
		return nil
	}
	onNode := current.OnNode(node)
	// Most satisfied first: removing them frees room for the needy.
	sort.Slice(onNode, func(i, j int) bool {
		ui, uj := best.Utilities[onNode[i]], best.Utilities[onNode[j]]
		if ui != uj {
			return ui > uj
		}
		return onNode[i] < onNode[j]
	})

	addable := addableApps(p, current, best, node)

	var out []*Placement
	base := current.Clone()
	for k := 0; k <= len(onNode); k++ {
		if k > 0 {
			base.Remove(onNode[k-1], node)
			// Pure removal (suspension) frees CPU for the remaining
			// residents even when nothing is added back.
			out = append(out, base.Clone())
		}
		// Inner loop: place the neediest unplaced (or migratable)
		// applications. A full greedy fill can overshoot (e.g. moving
		// every job onto this node), so generate one candidate per
		// additive prefix: add 1, then 2, ... of the addable apps.
		prev := 0
		for adds := 1; adds <= maxAddsPerNode; adds++ {
			cand := base.Clone()
			added := fillNode(p, cand, node, nd.MemMB, addable, adds)
			if added == 0 || added == prev {
				break // nothing (more) fits
			}
			prev = added
			out = append(out, cand)
			if added < adds {
				break
			}
		}
	}
	return out
}

// maxAddsPerNode bounds the additive prefix sweep per candidate node. The
// paper's experiments fit at most three jobs and one web instance per
// node, so four prefixes cover every useful configuration.
const maxAddsPerNode = 4

// collocationConflict reports whether adding app idx to the node would
// violate an anti-collocation relation with a resident application.
func collocationConflict(p *Problem, pl *Placement, node cluster.NodeID, idx int) bool {
	for _, other := range pl.OnNode(node) {
		if other != idx && conflictsWith(p.Apps[idx], p.Apps[other]) {
			return true
		}
	}
	return false
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
func webExpansionCandidates(p *Problem, current *Placement, best *Evaluation) []*Placement {
	var out []*Placement
	for idx, a := range p.Apps {
		if a.Kind != KindWeb {
			continue
		}
		if best.Utilities[idx] >= a.Web.UtilityCap()-capTolerance {
			continue
		}
		cand := current.Clone()
		var hostCPU float64
		for _, nd := range cand.NodesOf(idx) {
			node, _ := p.Cluster.Node(nd)
			hostCPU += node.CPUMHz
		}
		target := a.Web.MaxDemand()
		added := 0
		for n := 0; n < p.Cluster.Len() && hostCPU < target; n++ {
			node, _ := p.Cluster.Node(cluster.NodeID(n))
			if cand.Has(idx, node.ID) || !a.allows(node.ID) {
				continue
			}
			var mem float64
			for _, other := range cand.OnNode(node.ID) {
				mem += p.Apps[other].MemoryMB()
			}
			if mem+a.MemoryMB() > node.MemMB+capTolerance {
				continue
			}
			if collocationConflict(p, cand, node.ID, idx) {
				continue
			}
			cand.Add(idx, node.ID)
			hostCPU += node.CPUMHz
			added++
		}
		if added > 0 {
			out = append(out, cand)
		}
	}
	return out
}

// addableApps lists applications that could gain an instance on the node,
// ordered by ascending current utility (neediest first).
func addableApps(p *Problem, current *Placement, best *Evaluation, node cluster.NodeID) []int {
	var out []int
	for idx, a := range p.Apps {
		if !a.allows(node) {
			continue
		}
		switch a.Kind {
		case KindBatch:
			if a.Job.Remaining(a.Done) <= 0 {
				continue
			}
			// A job placed on another node is still "addable" here: a
			// batch job holds a single instance, so placing it on this
			// node is a migration. But a placed job already achieving
			// its cap at the comparison resolution (running flat out)
			// cannot be helped by moving.
			if current.Has(idx, node) {
				continue
			}
			if current.Placed(idx) {
				eps := p.epsilon()
				uBucket := math.Floor(best.Utilities[idx] / eps)
				capBucket := math.Floor(a.Job.UtilityCap(a.Done, p.Now) / eps)
				if uBucket >= capBucket {
					continue
				}
			}
			out = append(out, idx)
		case KindWeb:
			if current.Has(idx, node) {
				continue
			}
			// Skip web apps already at their utility cap: another
			// instance cannot help.
			if best.Utilities[idx] >= a.Web.UtilityCap()-capTolerance {
				continue
			}
			out = append(out, idx)
		}
	}
	// Order by need at the comparison resolution. The hypothetical RPF
	// equalizes utilities across the batch workload, so raw values tie
	// only up to numeric noise; comparing quantized values lets the
	// deliberate tie-breaks apply: start unplaced work before migrating
	// placed work.
	eps := p.epsilon()
	sort.Slice(out, func(i, j int) bool {
		ui := math.Floor(best.Utilities[out[i]] / eps)
		uj := math.Floor(best.Utilities[out[j]] / eps)
		if ui != uj {
			return ui < uj
		}
		pi, pj := current.Placed(out[i]), current.Placed(out[j])
		if pi != pj {
			return !pi
		}
		return out[i] < out[j]
	})
	return out
}

// fillNode greedily adds up to maxAdds instances from addable (in order)
// while the node's memory allows, returning the number added.
func fillNode(p *Problem, pl *Placement, node cluster.NodeID, memCap float64, addable []int, maxAdds int) int {
	var used float64
	for _, app := range pl.OnNode(node) {
		used += p.Apps[app].MemoryMB()
	}
	added := 0
	for _, idx := range addable {
		if added >= maxAdds {
			break
		}
		if pl.Has(idx, node) {
			continue
		}
		mem := p.Apps[idx].MemoryMB()
		if used+mem > memCap+capTolerance {
			continue
		}
		if collocationConflict(p, pl, node, idx) {
			continue
		}
		if p.Apps[idx].Kind == KindBatch && pl.Placed(idx) {
			// Single-instance job placed elsewhere: adding it here is a
			// migration.
			pl.Clear(idx)
		}
		pl.Add(idx, node)
		used += mem
		added++
	}
	return added
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

// UtilityOf is a convenience for reporting: the utility of one app in an
// evaluation, or rpf.MinUtility if out of range.
func (e *Evaluation) UtilityOf(app int) float64 {
	if app < 0 || app >= len(e.Utilities) {
		return rpf.MinUtility
	}
	return e.Utilities[app]
}
