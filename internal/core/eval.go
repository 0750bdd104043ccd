package core

import (
	"fmt"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// Evaluate assesses a candidate placement: it solves the CPU distribution
// (Section 3.2's load matrix L), advances every placed job by its
// allocation over the next cycle (charging placement-action costs against
// the job's productive time), and predicts each application's relative
// performance — batch jobs through the hypothetical RPF at now+T with
// aggregate allocation ω_g (Section 4.2), web applications through the
// queueing model.
func Evaluate(p *Problem, pl *Placement) (*Evaluation, error) {
	if pl == nil || pl.Apps() != len(p.Apps) {
		return nil, fmt.Errorf("%w: placement/app mismatch", ErrBadProblem)
	}
	return evaluateWith(p, pl, newAllocator(p, pl, nil))
}

// evaluateWith runs the CPU-distribution solve on a prepared allocator
// and derives the per-application predictions. Shared by the full and
// incremental evaluation paths, which differ only in how feasibility of
// the placement's memory/anti-collocation constraints is established.
func evaluateWith(p *Problem, pl *Placement, al *allocator) (*Evaluation, error) {
	defer al.release()
	perApp, shares, ok := al.solve()
	if !ok {
		return &Evaluation{Feasible: false, Probes: al.probes, FlowSolves: al.flowSolves}, nil
	}

	ev := &Evaluation{
		Feasible:   true,
		PerApp:     perApp,
		WebShares:  shares,
		Utilities:  make([]float64, len(p.Apps)),
		Probes:     al.probes,
		FlowSolves: al.flowSolves,
	}

	horizon := p.Now + p.Cycle
	states := make([]batch.State, 0, len(p.Apps))
	stateApp := make([]int, 0, len(p.Apps))
	completed := make(map[int]float64) // app -> completion time within cycle

	for idx, a := range p.Apps {
		if a.Kind != KindBatch {
			continue
		}
		if a.Job.Remaining(a.Done) <= 0 {
			// Completed before this cycle: it demands nothing and cannot
			// be helped, so it must not drag the objective. The control
			// loop retires such jobs; this guard covers the boundary.
			ev.Utilities[idx] = rpf.MaxUtility
			continue
		}
		done := a.Done
		delay := 0.0
		if pl.Placed(idx) && perApp[idx] > 0 {
			ev.OmegaG += perApp[idx]
			cost := actionCost(p, idx, pl.NodesOf(idx)[0])
			dt := p.Cycle - cost
			if dt > 0 {
				newDone, idle := a.Job.Advance(done, perApp[idx], dt)
				done = newDone
				if a.Job.Remaining(done) <= 0 {
					completed[idx] = p.Now + cost + (dt - idle)
					continue
				}
			}
		} else {
			delay = restartDelay(p, idx, pl)
		}
		states = append(states, batch.State{Spec: a.Job, Done: done, Delay: delay})
		stateApp = append(stateApp, idx)
	}

	var preds []batch.Prediction
	if len(states) > 0 {
		h, err := batch.NewHypothetical(horizon, states, p.Levels)
		if err != nil {
			return nil, fmt.Errorf("core: hypothetical: %w", err)
		}
		if p.ExactHypothetical {
			preds = h.PredictExact(ev.OmegaG)
		} else {
			preds = h.Predict(ev.OmegaG)
		}
	}

	for i, app := range stateApp {
		ev.Utilities[app] = preds[i].Utility
	}
	for app, t := range completed {
		ev.Utilities[app] = p.Apps[app].Job.UtilityAtCompletion(t)
	}
	for idx, a := range p.Apps {
		if a.Kind != KindWeb {
			continue
		}
		if !pl.Placed(idx) {
			if a.Web.Quiesced() {
				// A zero-rate app needs nothing; leaving it unplaced is
				// not a failure and must not drag the max-min objective.
				ev.Utilities[idx] = a.Web.UtilityCap()
			} else {
				ev.Utilities[idx] = rpf.MinUtility
			}
			continue
		}
		ev.Utilities[idx] = a.Web.Utility(perApp[idx])
	}
	ev.Vector = rpf.NewVector(ev.Utilities)
	return ev, nil
}

// evalContext carries the state shared by the many candidate
// evaluations of one optimization step: the base placement candidates
// were derived from, its per-node residents and memory use, and the
// cluster's capacity vector. A candidate differs from the base on only
// a handful of nodes, so instead of re-running the full O(nodes × apps)
// memory scan per candidate, feasibility is re-established on the
// touched nodes alone. The CPU-distribution solve itself is unchanged,
// which keeps incremental scores bit-identical to Evaluate's.
//
// The context is immutable after construction and safe for concurrent
// use by the evaluation worker pool. It must be rebuilt whenever the
// optimizer adopts a new incumbent placement.
type evalContext struct {
	p    *Problem
	base *Placement
	// nodeCaps is the per-node CPU capacity vector, borrowed (read-only)
	// by every allocator built in this step.
	nodeCaps []float64
	// residents lists each node's applications in the base placement
	// (ascending app index).
	residents [][]int
	// conflicts reports whether any application declares an
	// anti-collocation relation; when none does, collocation checks are
	// skipped entirely.
	conflicts bool
}

// newEvalContext indexes the base placement. The base must satisfy the
// memory and anti-collocation constraints (the optimizer guarantees
// this: the initial placement is repaired and every adopted candidate
// was evaluated feasible).
func newEvalContext(p *Problem, base *Placement) *evalContext {
	n := p.Cluster.Len()
	ctx := &evalContext{
		p:         p,
		base:      base,
		nodeCaps:  make([]float64, n),
		residents: make([][]int, n),
	}
	for i, nd := range p.Cluster.Nodes() {
		ctx.nodeCaps[i] = nd.CPUMHz
	}
	for app := range p.Apps {
		for _, nd := range base.NodesOf(app) {
			ctx.residents[nd] = append(ctx.residents[nd], app)
		}
	}
	for _, a := range p.Apps {
		if len(a.AntiCollocate) > 0 {
			ctx.conflicts = true
			break
		}
	}
	return ctx
}

// evaluate scores a candidate placement incrementally. When the problem
// sets VerifyIncremental it additionally runs the full evaluation and
// errors out on any divergence.
func (c *evalContext) evaluate(cand *Placement) (*Evaluation, error) {
	ev, err := c.evaluateIncremental(cand)
	if err != nil || !c.p.VerifyIncremental {
		return ev, err
	}
	full, err := Evaluate(c.p, cand)
	if err != nil {
		return nil, err
	}
	if err := compareEvaluations(ev, full); err != nil {
		return nil, err
	}
	return ev, nil
}

func (c *evalContext) evaluateIncremental(cand *Placement) (*Evaluation, error) {
	if cand == nil || cand.Apps() != len(c.p.Apps) {
		return nil, fmt.Errorf("%w: placement/app mismatch", ErrBadProblem)
	}
	if !c.feasibleDelta(cand) {
		return &Evaluation{Feasible: false}, nil
	}
	al := newAllocator(c.p, cand, c.nodeCaps)
	al.skipMemCheck = true
	return evaluateWith(c.p, cand, al)
}

// feasibleDelta checks memory and anti-collocation constraints on the
// nodes where cand differs from the base placement. Untouched nodes
// carry the base's residents unchanged and the base is feasible, so
// they cannot fail; nodes that only lost instances cannot fail either.
func (c *evalContext) feasibleDelta(cand *Placement) bool {
	type delta struct {
		removed []int
		added   []int
	}
	var touched map[cluster.NodeID]*delta
	note := func(nd cluster.NodeID) *delta {
		if touched == nil {
			touched = make(map[cluster.NodeID]*delta)
		}
		d := touched[nd]
		if d == nil {
			d = &delta{}
			touched[nd] = d
		}
		return d
	}
	for app := 0; app < len(c.p.Apps); app++ {
		a, b := c.base.NodesOf(app), cand.NodesOf(app) // both sorted
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				i++
				j++
			case a[i] < b[j]:
				d := note(a[i])
				d.removed = append(d.removed, app)
				i++
			default:
				d := note(b[j])
				d.added = append(d.added, app)
				j++
			}
		}
		for ; i < len(a); i++ {
			d := note(a[i])
			d.removed = append(d.removed, app)
		}
		for ; j < len(b); j++ {
			d := note(b[j])
			d.added = append(d.added, app)
		}
	}
	for nd, d := range touched {
		if len(d.added) == 0 {
			continue
		}
		// Sum the candidate's residents in ascending app order — the
		// exact order (and therefore rounding) memoryFits uses — by
		// merging the base residents (minus removals) with the
		// additions. A base-sum-plus-delta shortcut could land a
		// last-ulp away from the fresh sum right at the capacity
		// boundary and diverge from the full evaluation.
		var mem float64
		res := c.residents[nd]
		ri, ai, di := 0, 0, 0
		for ri < len(res) || ai < len(d.added) {
			if ai >= len(d.added) || (ri < len(res) && res[ri] < d.added[ai]) {
				app := res[ri]
				ri++
				if di < len(d.removed) && d.removed[di] == app {
					di++
					continue
				}
				mem += c.p.Apps[app].MemoryMB()
			} else {
				mem += c.p.Apps[d.added[ai]].MemoryMB()
				ai++
			}
		}
		node, ok := c.p.Cluster.Node(nd)
		if !ok || mem > node.MemMB+capTolerance {
			return false
		}
		if !c.conflicts {
			continue
		}
		for ai, app := range d.added {
			for _, other := range c.residents[nd] {
				removed := false
				for _, r := range d.removed {
					if r == other {
						removed = true
						break
					}
				}
				if removed {
					continue
				}
				if conflictsWith(c.p.Apps[app], c.p.Apps[other]) {
					return false
				}
			}
			for _, other := range d.added[:ai] {
				if conflictsWith(c.p.Apps[app], c.p.Apps[other]) {
					return false
				}
			}
		}
	}
	return true
}

// compareEvaluations is the VerifyIncremental cross-check: incremental
// and full evaluations must agree exactly, because they run the same
// solve on the same inputs and differ only in how feasibility was
// established.
func compareEvaluations(inc, full *Evaluation) error {
	if inc.Feasible != full.Feasible {
		return fmt.Errorf("core: incremental evaluation feasibility mismatch: incremental %v, full %v",
			inc.Feasible, full.Feasible)
	}
	if !inc.Feasible {
		return nil
	}
	if inc.OmegaG != full.OmegaG {
		return fmt.Errorf("core: incremental evaluation diverged on omegaG: incremental %v, full %v",
			inc.OmegaG, full.OmegaG)
	}
	// Vector is what adoption decisions compare, so check it directly
	// rather than relying on it staying derived from Utilities alone.
	if inc.Vector.Compare(full.Vector) != 0 {
		return fmt.Errorf("core: incremental evaluation diverged on utility vector: incremental %v, full %v",
			inc.Vector, full.Vector)
	}
	for i := range full.Utilities {
		if inc.Utilities[i] != full.Utilities[i] {
			return fmt.Errorf("core: incremental evaluation diverged at app %d: incremental %v, full %v",
				i, inc.Utilities[i], full.Utilities[i])
		}
		if inc.PerApp[i] != full.PerApp[i] {
			return fmt.Errorf("core: incremental evaluation diverged on app %d allocation: incremental %v, full %v",
				i, inc.PerApp[i], full.PerApp[i])
		}
	}
	if len(inc.WebShares) != len(full.WebShares) {
		return fmt.Errorf("core: incremental evaluation diverged on web share count: incremental %d, full %d",
			len(inc.WebShares), len(full.WebShares))
	}
	for app, want := range full.WebShares {
		got, ok := inc.WebShares[app]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("core: incremental evaluation diverged on app %d web shares", app)
		}
		for s := range want {
			if got[s] != want[s] {
				return fmt.Errorf("core: incremental evaluation diverged on app %d web share %d: incremental %v, full %v",
					app, s, got[s], want[s])
			}
		}
	}
	return nil
}

// restartDelay returns the placement-action time a currently-unplaced (in
// the candidate) job will pay before it can execute again: the suspend it
// is about to undergo plus the eventual resume if the candidate evicts it,
// the resume alone if it is already suspended, or the boot if it has never
// started. Charging this into the hypothetical prediction makes
// suspensions bear their true cost, so utility-neutral rotations of
// identical jobs are never worth a reconfiguration (the paper observes
// none in Experiment One).
func restartDelay(p *Problem, app int, pl *Placement) float64 {
	a := p.Apps[app]
	footprint := a.MemoryMB()
	switch {
	case p.Current != nil && p.Current.Placed(app) && !pl.Placed(app):
		return p.Costs.Suspend(footprint) + p.Costs.Resume(footprint)
	case a.Started:
		return p.Costs.Resume(footprint)
	default:
		return p.Costs.Boot()
	}
}

// actionCost returns the virtual-time cost incurred before the job can run
// on node target next cycle, given its current placement.
func actionCost(p *Problem, app int, target cluster.NodeID) float64 {
	a := p.Apps[app]
	footprint := a.MemoryMB()
	cur := p.Current
	if cur != nil && cur.Placed(app) {
		if cur.Has(app, target) {
			return 0 // keeps running in place
		}
		return p.Costs.Migrate(footprint) // live migration
	}
	if !a.Started {
		return p.Costs.Boot()
	}
	// Previously suspended: resuming in place is cheaper than moving.
	last := cluster.NodeID(-1)
	if p.LastNode != nil && app < len(p.LastNode) {
		last = p.LastNode[app]
	}
	if last == target {
		return p.Costs.Resume(footprint)
	}
	return p.Costs.Migrate(footprint) + p.Costs.Resume(footprint)
}
