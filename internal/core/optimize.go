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
	// every Parallelism setting. So are the candidates of a node Optimize
	// skipped as interchangeable with one already visited: they are
	// neither scored nor counted.
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
// Empty nodes are mostly interchangeable, and the outer loop skips a
// node whose candidates would repeat those of an equivalent node already
// visited against the same incumbent (see twinOf): they would score bit
// for bit the same, so none of them could be adopted either. Skipped
// candidates are neither scored nor counted in CandidatesEvaluated.
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
	pool := newEvalPool(p.parallelism())
	defer pool.close()
	// The constants table is built once, into the calling goroutine's
	// arena, and only read from here on — by every worker.
	t := &pool.own.tbl
	t.build(p)
	repaired, err := repair(t, current)
	if err != nil {
		return nil, err
	}

	res := &Result{Repaired: repaired}
	ctx := &evalContext{t: t}
	ctx.rebase(current, nil)
	best, err := ctx.evaluate(pool.own, nil)
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
	var flat [][]edit
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
		var webBest []edit
		for i, cand := range webCands {
			ev := evs[i]
			res.count(ev)
			if !ev.Feasible {
				continue
			}
			if q := ev.Vector.Quantize(eps); bestQ.Less(q) {
				webBest, best, bestQ = cand, ev, q
				improved = true
			}
		}
		if webBest != nil {
			ctx.rebase(ctx.placement(webBest), best.brackets)
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
				node, before := cluster.NodeID(m), len(flat)
				if twin := ctx.twinOf(node); twin < 0 {
					flat = ctx.candidatesForNode(best, node, flat)
				} else if p.VerifyIncremental {
					if err := ctx.checkTwin(best, node, twin); err != nil {
						return nil, err
					}
				}
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
				var bestCand []edit
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
					if removes(cand) && !ev.Vector.ImprovesOn(best.Vector, eps) {
						continue
					}
					switch {
					case bestEval == nil:
						bestCand, bestEval, bestCandQ = cand, ev, q
					case bestCandQ.Less(q):
						bestCand, bestEval, bestCandQ = cand, ev, q
					case q.Compare(bestCandQ) == 0 && len(cand) < len(bestCand):
						// Resolution-level tie: prefer the less disruptive
						// configuration.
						bestCand, bestEval, bestCandQ = cand, ev, q
					}
				}
				if bestEval != nil {
					best, bestQ = bestEval, bestCandQ
					improved = true
					adopted = true
					ctx.rebase(ctx.placement(bestCand), best.brackets)
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

	res.Placement = ctx.base
	res.Eval = best
	if p.Current != nil {
		res.Changes = ctx.base.Changes(p.Current)
	} else {
		res.Changes = ctx.base.Changes(NewPlacement(len(p.Apps)))
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
	// kept is a node's residents as a candidate would leave them, and
	// trial the same with one more application (both ascending).
	kept, trial []int
}

// candidatesForNode appends to out the intermediate-loop configurations
// for one node, as edits to the base: for k = 0..(instances on node),
// remove the k most-satisfied instances, then greedily add the neediest
// unplaced applications that fit the freed memory.
func (c *evalContext) candidatesForNode(best *Evaluation, node cluster.NodeID, out [][]edit) [][]edit {
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

	for k := 0; k <= len(g.onNode); k++ {
		// Inner loop: place the neediest unplaced (or migratable)
		// applications. A full greedy fill can overshoot (e.g. moving
		// every job onto this node), so generate one candidate per
		// additive prefix: add 1, then 2, ... of the applications the
		// fill would take. The fill decides each application from the
		// ones before it alone, so its prefixes are the fills of smaller
		// budgets and it is computed once per removal depth. Every
		// candidate at this depth is a prefix of one list of edits.
		picks := c.greedyFill(node, g.onNode[:k], addable)
		edits := make([]edit, 0, k+2*len(picks))
		for _, app := range g.onNode[:k] {
			edits = append(edits, edit{app: app, node: node})
		}
		if k > 0 {
			// Pure removal (suspension) frees CPU for the remaining
			// residents even when nothing is added back.
			out = append(out, edits[:k:k])
		}
		for _, idx := range picks {
			if t.p.Apps[idx].Kind == KindBatch {
				// Single-instance job placed elsewhere: adding it here
				// is a migration.
				for _, from := range c.base.NodesOf(idx) {
					edits = append(edits, edit{app: idx, node: from})
				}
			}
			edits = append(edits, edit{app: idx, node: node, add: true})
			out = append(out, edits[:len(edits):len(edits)])
		}
	}
	return out
}

// nodeClass is what makes two nodes interchangeable to the outer loop
// when neither is distinguished (table.distinguished) and the base
// places nothing on either: the same capacities, and the same number of
// the base's web-hosting nodes below them.
type nodeClass struct {
	cpu, mem float64
	webRank  int
}

// twinOf returns a node equivalent to node that was visited since the
// last rebase, or -1 when there is none and node must be visited; node
// then becomes its class's representative.
//
// Equivalent nodes have the same candidates up to the node id, and those
// score bit for bit the same: an empty, undistinguished node gives
// actionCost and restartDelay nothing to tell it apart by, and with the
// same web rank it takes the same position in every NodesOf list, in the
// allocator's webHosts and in the routing network's edge order. Nothing
// else of a candidate depends on which node it was made for. The
// representative was visited against the same incumbent and none of its
// candidates was adopted, or rebase would have forgotten it, so none of
// its twins' candidates would be either.
func (c *evalContext) twinOf(node cluster.NodeID) cluster.NodeID {
	t := c.t
	if t.distinguished[node] || len(c.residents.on(node)) > 0 {
		return -1
	}
	k := nodeClass{cpu: t.nodeCaps[node], mem: t.nodeMem[node], webRank: c.webRank[node]}
	rep, ok := c.classes[k]
	if !ok {
		c.classes[k] = node
	}
	if !ok || rep == node {
		return -1
	}
	return rep
}

// checkTwin is the VerifyIncremental cross-check of the class skip: it
// generates the candidates of node, which was skipped as twin's equal,
// and fails unless each one scores exactly as twin's candidate at the
// same index under a full Evaluate and makes as many changes to the
// incumbent.
func (c *evalContext) checkTwin(best *Evaluation, node, twin cluster.NodeID) error {
	want := c.candidatesForNode(best, twin, nil)
	got := c.candidatesForNode(best, node, nil)
	if len(got) != len(want) {
		return fmt.Errorf("core: skipped node %d has %d candidates, its twin node %d has %d",
			node, len(got), twin, len(want))
	}
	for i := range got {
		wantEv, err := Evaluate(c.t.p, c.placement(want[i]))
		if err != nil {
			return err
		}
		gotEv, err := Evaluate(c.t.p, c.placement(got[i]))
		if err != nil {
			return err
		}
		if err := diffEvaluations(gotEv, wantEv); err != nil {
			return fmt.Errorf("core: skipped node %d's candidate %d scores unlike twin node %d's: %w",
				node, i, twin, err)
		}
		if g, w := len(got[i]), len(want[i]); g != w {
			return fmt.Errorf("core: skipped node %d's candidate %d makes %d changes, twin node %d's %d",
				node, i, g, twin, w)
		}
	}
	return nil
}

// maxAddsPerNode bounds the additive prefix sweep per candidate node. The
// paper's experiments fit at most three jobs and one web instance per
// node, so four prefixes cover every useful configuration.
const maxAddsPerNode = 4

// greedyFill picks up to maxAddsPerNode applications from addable (in
// order) that the node can take once the removed residents are gone:
// each must fit (table.fits) beside the remaining residents and the
// earlier picks. The node is the only one a fill changes, apart from a
// migrated job's old node, which only loses an instance, so every
// prefix of the fill fits.
func (c *evalContext) greedyFill(node cluster.NodeID, removed, addable []int) []int {
	t, g := c.t, &c.gen
	kept, trial := g.kept[:0], g.trial[:0]
	for _, app := range c.residents.on(node) {
		if !slices.Contains(removed, app) {
			kept = append(kept, app)
		}
	}
	picks := g.picks[:0]
	for _, idx := range addable {
		if len(picks) >= maxAddsPerNode {
			break
		}
		var ok bool
		if trial, ok = t.fitsBeside(node, kept, idx, trial); ok {
			kept, trial = trial, kept
			picks = append(picks, idx)
		}
	}
	g.kept, g.trial, g.picks = kept, trial, picks
	return picks
}

// removes reports whether a candidate removes or moves any instance of
// the incumbent placement: whether one of its edits is a removal.
func removes(cand []edit) bool {
	return slices.ContainsFunc(cand, func(e edit) bool { return !e.add })
}

// webExpansionCandidates builds, for every web application short of its
// utility cap, a candidate that replicates it across nodes with free
// memory until the hosting nodes' combined CPU covers its maximum useful
// demand: one add edit per node.
func (c *evalContext) webExpansionCandidates(best *Evaluation) [][]edit {
	t := c.t
	var out [][]edit
	for idx := range t.apps {
		ac := &t.apps[idx]
		if ac.web == nil || best.Utilities[idx] >= ac.webCap-capTolerance {
			continue
		}
		var hostCPU float64
		for _, nd := range c.base.NodesOf(idx) {
			hostCPU += t.nodeCaps[nd]
		}
		var cand []edit
		for n := 0; n < len(t.nodeCaps) && hostCPU < ac.webMax; n++ {
			node := cluster.NodeID(n)
			if c.residents.has(node, idx) || !t.p.Apps[idx].allows(node) {
				continue
			}
			// The candidate differs from the base only in this app's
			// instances, so a node it is not on has the base's residents.
			var ok bool
			if c.gen.trial, ok = t.fitsBeside(node, c.residents.on(node), idx, c.gen.trial); !ok {
				continue
			}
			cand = append(cand, edit{app: idx, node: node, add: true})
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

// repair evicts instances until the placement satisfies memory,
// anti-collocation and minimum-speed constraints on every node — the
// recovery path after a node disappears or an application's footprint
// grows. It returns whether anything was evicted.
func repair(t *table, pl *Placement) (bool, error) {
	p := t.p
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
			var minCPU float64
			apps := pl.OnNode(node.ID)
			for _, app := range apps {
				if p.Apps[app].Kind == KindBatch {
					minCPU += p.Apps[app].Job.MinSpeedAt(p.Apps[app].Done)
				}
			}
			if minCPU <= node.CPUMHz+capTolerance && t.fits(node.ID, apps) {
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
