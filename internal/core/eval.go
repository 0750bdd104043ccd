package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// arena is everything one goroutine needs to evaluate placements one
// after another without allocating per candidate: an allocator that is
// re-aimed, a hypothetical RPF that is reset, and the scratch of the
// prediction pass. What an evaluation returns (the
// Evaluation and its slices) is always freshly allocated; nothing in it
// aliases the arena.
//
// Lifetime: Optimize's evaluation pool takes one arena per worker from
// arenas when it starts and puts every one back when it closes; Evaluate
// and Explain's probes take one for the duration of the call. An arena
// is never shared between goroutines and holds one candidate's worth of
// scratch, sized by the largest problem it has served.
type arena struct {
	al  allocator
	hyp batch.Hypothetical

	// tbl is the arena's own constants table, for the callers that
	// evaluate against a Problem without an Optimize around them.
	tbl table

	// work is this arena's copy of base, the last evaluation context base
	// it served: evalContext.evaluate makes each candidate's edits on it,
	// scores it and takes them back. The evaluation pool clears both.
	base, work *Placement

	// evaluate scratch: hypothetical inputs and outputs, and the jobs
	// that complete inside the cycle with their completion times.
	states      []batch.State
	stateApp    []int
	preds       []batch.Prediction
	completed   []int
	completedAt []float64 // parallel to completed
}

// arenas recycles arenas between cycles and calls.
var arenas = sync.Pool{New: func() any { return new(arena) }}

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
	ar := arenas.Get().(*arena)
	defer arenas.Put(ar)
	ar.tbl.build(p)
	return ar.evaluate(&ar.tbl, pl, false, nil)
}

// evaluate runs the CPU-distribution solve for pl and derives the
// per-application predictions. Shared by the full and incremental
// evaluation paths, which differ only in whether the placement's memory
// and anti-collocation constraints are checked: skipMemCheck when pl is
// one of Optimize's candidates, which are generated to fit. hints seed
// the level searches (allocator.level); they change the work, never the
// result.
func (ar *arena) evaluate(t *table, pl *Placement, skipMemCheck bool, hints [][2]float64) (*Evaluation, error) {
	p, al := t.p, &ar.al
	al.aim(t, pl)
	al.hints = hints
	perApp, shares, ok, err := al.solve(skipMemCheck)
	if err == nil {
		err = al.cutErr
	}
	if err != nil {
		return nil, err
	}
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
	states, stateApp := ar.states[:0], ar.stateApp[:0]
	completed, completedAt := ar.completed[:0], ar.completedAt[:0]

	for idx, a := range p.Apps {
		if a.Kind != KindBatch {
			continue
		}
		if t.apps[idx].job.Remaining <= 0 {
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
			cost := t.actionCost(idx, pl.NodesOf(idx)[0])
			dt := p.Cycle - cost
			if dt > 0 {
				newDone, idle := a.Job.Advance(done, perApp[idx], dt)
				done = newDone
				if a.Job.Remaining(done) <= 0 {
					completed = append(completed, idx)
					completedAt = append(completedAt, p.Now+cost+(dt-idle))
					continue
				}
			}
		} else {
			delay = t.restartDelay(idx, pl)
		}
		states = append(states, batch.State{Spec: a.Job, Done: done, Delay: delay})
		stateApp = append(stateApp, idx)
	}
	ar.states, ar.stateApp, ar.completed, ar.completedAt = states, stateApp, completed, completedAt

	if len(states) > 0 {
		if err := ar.hyp.Reset(horizon, states, nil); err != nil {
			return nil, fmt.Errorf("core: hypothetical: %w", err)
		}
		if p.ExactHypothetical {
			ar.preds = ar.hyp.AppendPredictExact(ar.preds[:0], ev.OmegaG)
		} else {
			ar.preds = ar.hyp.AppendPredict(ar.preds[:0], ev.OmegaG)
		}
	}

	for i, app := range stateApp {
		ev.Utilities[app] = ar.preds[i].Utility
	}
	for i, app := range completed {
		ev.Utilities[app] = p.Apps[app].Job.UtilityAtCompletion(completedAt[i])
	}
	for idx := range p.Apps {
		c := &t.apps[idx]
		if c.web == nil {
			continue
		}
		if !pl.Placed(idx) {
			if c.web.Quiesced() {
				// A zero-rate app needs nothing; leaving it unplaced is
				// not a failure and must not drag the max-min objective.
				ev.Utilities[idx] = c.webCap
			} else {
				ev.Utilities[idx] = rpf.MinUtility
			}
			continue
		}
		ev.Utilities[idx] = c.web.Utility(perApp[idx])
	}
	ev.Vector = rpf.NewVector(ev.Utilities)
	return ev, nil
}

// evalContext carries the state shared by the many candidate
// evaluations of one optimization step: the constants table, the base
// placement candidates were derived from and its per-node residents. A
// candidate is a handful of edits to the base, and the generators build
// it to fit: every node it changes is checked with table.fits as it is
// built, and every other node keeps the feasible base's residents. So a
// candidate's evaluation skips the full O(nodes × apps) memory scan. The
// CPU-distribution solve itself is unchanged, which keeps incremental
// scores bit-identical to Evaluate's; it only starts each level search
// from the base's bracket for the same round, which skips most of the
// probes when the candidate's level is the base's.
//
// Between rebase calls the context is read-only to evaluate, which is
// what the evaluation workers call concurrently (each with its own
// arena). rebase and the candidate generators write to it; the
// optimizer calls them only while no batch is in flight.
type evalContext struct {
	t    *table
	base *Placement
	// residents indexes the base placement by node.
	residents residentIndex
	// hints are the base's level-search brackets (allocator.brackets).
	hints [][2]float64
	// webRank counts, per node, the base's web-hosting nodes with a
	// lower index, and classes maps each class of interchangeable nodes
	// (twinOf) visited since the last rebase to its first visited member.
	webRank []int
	classes map[nodeClass]cluster.NodeID
	// gen is the candidate generators' scratch.
	gen genScratch
}

// rebase makes base the placement candidates are derived from. The base
// must satisfy the memory and anti-collocation constraints (the
// optimizer guarantees this: the initial placement is repaired and every
// adopted candidate was generated to fit). hints are the brackets of
// base's evaluation by this context (Evaluation.brackets), nil before
// there is one.
func (c *evalContext) rebase(base *Placement, hints [][2]float64) {
	t, n := c.t, len(c.t.nodeCaps)
	c.base = base
	c.residents.build(base, n)
	c.hints = hints
	c.webRank = slices.Grow(c.webRank[:0], n)[:n]
	rank := 0
	for nd := range c.webRank {
		c.webRank[nd] = rank
		for _, app := range c.residents.on(cluster.NodeID(nd)) {
			if t.apps[app].web != nil {
				rank++
				break
			}
		}
	}
	if c.classes == nil {
		c.classes = make(map[nodeClass]cluster.NodeID)
	}
	clear(c.classes)
}

// evaluate scores incrementally the candidate that edits, built to fit
// by the generators, make of the base (no edits: the base itself), on
// the arena's copy of the base. Under VerifyIncremental it also checks
// what the optimizer reads off the edits (each makes one change; the
// candidate loses a base instance iff one is a removal) and runs the
// full evaluation, memory scan included, erroring out on any divergence.
func (c *evalContext) evaluate(ar *arena, edits []edit) (*Evaluation, error) {
	if ar.base != c.base {
		ar.base, ar.work = c.base, c.base.Clone()
	}
	work := ar.work
	work.apply(edits, false)
	defer work.apply(edits, true)
	ev, err := ar.evaluate(c.t, work, true, c.hints)
	if err == nil && ev.Feasible {
		ev.brackets = slices.Clone(ar.al.brackets)
	}
	if err != nil || !c.t.p.VerifyIncremental {
		return ev, err
	}
	lost := false
	for app, ns := range c.base.nodes {
		lost = lost || slices.ContainsFunc(ns, func(nd cluster.NodeID) bool { return !work.Has(app, nd) })
	}
	if n := work.Changes(c.base); n != len(edits) || lost != removes(edits) {
		return nil, fmt.Errorf("core: a candidate of %d edits (a removal: %v) makes %d changes (loses an instance: %v)",
			len(edits), removes(edits), n, lost)
	}
	full, err := Evaluate(c.t.p, work)
	if err != nil {
		return nil, err
	}
	if err := diffEvaluations(ev, full); err != nil {
		return nil, fmt.Errorf("core: incremental evaluation diverged from the full one: %w", err)
	}
	return ev, nil
}

// placement is the candidate that edits make of the base, as a placement
// of its own: what the optimizer adopts.
func (c *evalContext) placement(edits []edit) *Placement {
	pl := c.base.Clone()
	pl.apply(edits, false)
	return pl
}

// diffEvaluations describes the first difference between two
// evaluations, or returns nil when they agree bit for bit on everything
// an adoption decision or a caller reads. VerifyIncremental uses it
// twice: an incremental evaluation must equal the full one, which runs
// the same solve on the same inputs and differs only in the memory scan
// the incremental one skips; and a node Optimize skipped as
// interchangeable must score exactly as the node it was skipped for
// (checkTwin).
func diffEvaluations(a, b *Evaluation) error {
	if a.Feasible != b.Feasible {
		return fmt.Errorf("feasible %v vs %v", a.Feasible, b.Feasible)
	}
	if !a.Feasible {
		return nil
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.OmegaG, b.OmegaG) {
		return fmt.Errorf("omegaG %v vs %v", a.OmegaG, b.OmegaG)
	}
	// Vector is what adoption decisions compare, so check it directly
	// rather than relying on it staying derived from Utilities alone.
	if len(a.Vector) != len(b.Vector) {
		return fmt.Errorf("utility vector of %d entries vs %d", len(a.Vector), len(b.Vector))
	}
	for i := range b.Vector {
		if !same(a.Vector[i], b.Vector[i]) {
			return fmt.Errorf("utility vector entry %d %v vs %v", i, a.Vector[i], b.Vector[i])
		}
	}
	for i := range b.Utilities {
		if !same(a.Utilities[i], b.Utilities[i]) {
			return fmt.Errorf("app %d utility %v vs %v", i, a.Utilities[i], b.Utilities[i])
		}
		if !same(a.PerApp[i], b.PerApp[i]) {
			return fmt.Errorf("app %d allocation %v vs %v", i, a.PerApp[i], b.PerApp[i])
		}
	}
	if len(a.WebShares) != len(b.WebShares) {
		return fmt.Errorf("%d web share lists vs %d", len(a.WebShares), len(b.WebShares))
	}
	for app, want := range b.WebShares {
		if got, ok := a.WebShares[app]; !ok || !slices.EqualFunc(got, want, same) {
			return fmt.Errorf("app %d web shares %v vs %v", app, got, want)
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
func (t *table) restartDelay(app int, pl *Placement) float64 {
	p, a := t.p, t.p.Apps[app]
	footprint := t.apps[app].mem
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
func (t *table) actionCost(app int, target cluster.NodeID) float64 {
	p, a := t.p, t.p.Apps[app]
	footprint := t.apps[app].mem
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
