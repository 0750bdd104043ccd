package core

import (
	"fmt"
	"math"
	"slices"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// Decision outcomes: what happened to an application this cycle,
// comparing the placement in effect before the solve with the adopted
// one.
const (
	// OutcomePlaced: gained its first instance(s) this cycle.
	OutcomePlaced = "placed"
	// OutcomeKept: instance set unchanged.
	OutcomeKept = "kept"
	// OutcomeMoved: same instance count on a different node set.
	OutcomeMoved = "moved"
	// OutcomeExpanded: a web application gained instances (superset).
	OutcomeExpanded = "expanded"
	// OutcomeShrunk: a web application lost instances (subset).
	OutcomeShrunk = "shrunk"
	// OutcomeEvicted: lost every instance while still demanding capacity.
	OutcomeEvicted = "evicted"
	// OutcomeDenied: demanded capacity but was never placed.
	OutcomeDenied = "denied"
	// OutcomeIdle: unplaced and demanding nothing (quiesced web app or
	// completed job) — not a failure.
	OutcomeIdle = "idle"
)

// Outcomes lists every Outcome* value; metric registries use it to
// pre-register one labeled series per outcome.
var Outcomes = []string{
	OutcomePlaced, OutcomeKept, OutcomeMoved, OutcomeExpanded,
	OutcomeShrunk, OutcomeEvicted, OutcomeDenied, OutcomeIdle,
}

// Binding constraints: the first constraint that blocks the obvious
// better outcome (staying put for a moved/evicted app, being placed at
// all for a denied one).
const (
	// BindMemory: no node (or the lost node) has the memory headroom.
	BindMemory = "memory"
	// BindAntiCollocation: every memory-feasible node hosts a declared
	// conflictor.
	BindAntiCollocation = "anti_collocation"
	// BindCPUCapacity: an instance fits memory and collocation, but the
	// CPU floors (a job's minimum speed, a web app's λ·c stability
	// demand) cannot be met.
	BindCPUCapacity = "cpu_capacity"
	// BindFlowCapacity: as BindCPUCapacity, but the shortfall is in the
	// multi-web max-flow routing rather than a single node's capacity.
	BindFlowCapacity = "flow_capacity"
	// BindPins: the application's pinned-node set rules out every node.
	BindPins = "pins"
	// BindUtility: the alternative was feasible; the optimizer's sorted
	// utility vector simply preferred the adopted placement.
	BindUtility = "utility"
)

// Bindings lists every Bind* value; metric registries use it to
// pre-register one labeled series per binding constraint.
var Bindings = []string{
	BindMemory, BindAntiCollocation, BindCPUCapacity,
	BindFlowCapacity, BindPins, BindUtility,
}

// AppDecision explains one application's cycle outcome.
type AppDecision struct {
	// App is the application's index in Problem.Apps.
	App int
	// Outcome is one of the Outcome* constants.
	Outcome string
	// Binding is the constraint that bound (Bind* constants). Empty for
	// kept/placed/expanded/idle outcomes, where nothing was lost.
	Binding string
	// Utility is the application's predicted relative performance under
	// the adopted placement.
	Utility float64
	// UtilityDelta is the utility won or lost against the caller-supplied
	// baseline (see Explain's before parameter), or, for a utility-bound
	// denial, what the application would have gained had it been placed.
	UtilityDelta float64
	// Reasons is the human-readable reason chain, most specific first.
	Reasons []string
}

// Explanation is the per-cycle decision provenance: one AppDecision per
// application, in application order.
type Explanation struct {
	// Decisions holds one entry per Problem.Apps element.
	Decisions []AppDecision
	// Repaired mirrors Result.Repaired: the input placement violated
	// constraints and instances were evicted before optimization.
	Repaired bool
}

// Explain reconstructs why the optimizer's Result treats each
// application the way it does. It compares p.Current against
// res.Placement, classifies every application's outcome, and for each
// denial, eviction or move diagnoses the binding constraint by probing
// the final placement: would the lost (or any) node still accept the
// application? If memory or anti-collocation forbid it — decided by
// table.fits, the solver's own fit rule — that constraint bound; if a
// probe instance evaluates infeasible, CPU (or multi-web flow) capacity
// bound; if the probe is feasible, the decision was utility-driven and
// the foregone utility is reported. res.Placement must satisfy the
// memory and anti-collocation constraints, as Optimize's output does.
//
// before, when non-nil, supplies the previous cycle's utility per
// application (NaN or missing entries are ignored) and feeds
// UtilityDelta. The call builds one constants table, the first time a
// diagnosis needs it. A denial then costs one fits per node the
// application may use plus, with a node that fits, one probe of it: at
// most 62 feasibility tests (the floor, level 1 and the solver's 60
// halvings); a move, shrink or eviction costs one fits per lost node.
// That is once per cycle, not per candidate, so explanations stay out
// of the optimizer's hot path.
func Explain(p *Problem, res *Result, before []float64) *Explanation {
	ex := &Explanation{
		Decisions: make([]AppDecision, len(p.Apps)),
		Repaired:  res.Repaired,
	}
	x := explainer{p: p, res: res, ar: arenas.Get().(*arena)}
	defer arenas.Put(x.ar)
	x.residents.build(res.Placement, p.Cluster.Len())
	for i := range p.Apps {
		ex.Decisions[i] = x.explainApp(before, i)
	}
	return ex
}

// explainer is one Explain call's state.
type explainer struct {
	p   *Problem
	res *Result
	// residents indexes the final placement by node; per-node OnNode
	// lookups would make each denial O(nodes × apps).
	residents residentIndex
	// ar is the call's one arena: its table, built on first use
	// (built), decides every fit and backs every probe.
	ar    *arena
	built bool
	trial []int // a node's residents with the diagnosed app inserted
}

// table returns the call's constants table, building it once.
func (x *explainer) table() *table {
	if !x.built {
		x.ar.tbl.build(x.p)
		x.built = true
	}
	return &x.ar.tbl
}

// fit asks table.fits whether app fits on node n beside the final
// placement's residents. When it does not, short > 0 is the memory
// shortfall, from the sum fits refused, if memory bound; otherwise
// conflictor is the resident app must not share n with.
func (x *explainer) fit(n cluster.NodeID, app int) (ok bool, short float64, conflictor int) {
	t := x.table()
	residents := x.residents.on(n)
	if x.trial, ok = t.fitsBeside(n, residents, app, x.trial); ok {
		return true, 0, -1
	}
	if mem, over := t.memory(n, x.trial); over {
		return false, mem - t.nodeMem[n], -1
	}
	// The residents fit together, so the refused pair includes app.
	i := slices.IndexFunc(residents, func(r int) bool { return t.conflict(app, r) })
	return false, 0, residents[i]
}

func (x *explainer) explainApp(before []float64, app int) AppDecision {
	p, res := x.p, x.res
	d := AppDecision{App: app}
	if res.Eval != nil && app < len(res.Eval.Utilities) {
		d.Utility = res.Eval.Utilities[app]
	}
	if app < len(before) && !math.IsNaN(before[app]) {
		d.UtilityDelta = d.Utility - before[app]
	}

	var was []cluster.NodeID
	if p.Current != nil {
		was = p.Current.NodesOf(app)
	}
	now := res.Placement.NodesOf(app)

	switch {
	case len(was) == 0 && len(now) == 0:
		if !demands(p.Apps[app]) {
			d.Outcome = OutcomeIdle
			d.UtilityDelta = 0
			d.Reasons = []string{"demands nothing this cycle; left unplaced"}
			return d
		}
		d.Outcome = OutcomeDenied
		x.diagnoseDenied(&d)
		return d
	case len(was) == 0:
		d.Outcome = OutcomePlaced
		d.Reasons = []string{fmt.Sprintf("placed on %s", nodeNames(p, now))}
		return d
	case len(now) == 0:
		d.Outcome = OutcomeEvicted
		x.diagnoseLostNodes(&d, was)
		return d
	case slices.Equal(was, now):
		d.Outcome = OutcomeKept
		return d
	}

	lost := diffNodes(was, now)
	gained := diffNodes(now, was)
	switch {
	case len(lost) == 0:
		d.Outcome = OutcomeExpanded
		d.Reasons = []string{fmt.Sprintf("expanded onto %s", nodeNames(p, gained))}
		return d
	case len(gained) == 0:
		d.Outcome = OutcomeShrunk
	default:
		d.Outcome = OutcomeMoved
		d.Reasons = []string{fmt.Sprintf("moved %s -> %s",
			nodeNames(p, lost), nodeNames(p, gained))}
	}
	x.diagnoseLostNodes(&d, lost)
	return d
}

// demands reports whether the application needs capacity this cycle.
func demands(a *Application) bool {
	if a.Kind == KindWeb {
		return !a.Web.Quiesced()
	}
	return a.Job.Remaining(a.Done) > 0
}

// diagnoseDenied finds the binding constraint for an application left
// unplaced: ask fit of every node it may use under the final placement,
// and probe the fastest node that fits with a real candidate evaluation.
func (x *explainer) diagnoseDenied(d *AppDecision) {
	p, t := x.p, x.table()
	a := p.Apps[d.App]
	var (
		anyAllowed   bool
		bestMemShort = -1.0 // smallest memory shortfall seen
		memShortNode cluster.NodeID
		conflictor   = -1 // a conflicting resident on a memory-feasible node
		conflictNode cluster.NodeID
		probe        = cluster.NodeID(-1) // the fastest node that fits
	)
	for n := range t.nodeCaps {
		nd := cluster.NodeID(n)
		if !a.allows(nd) {
			continue
		}
		anyAllowed = true
		switch ok, short, r := x.fit(nd, d.App); {
		case ok:
			if probe < 0 || t.nodeCaps[n] > t.nodeCaps[probe] {
				probe = nd
			}
		case short > 0:
			if bestMemShort < 0 || short < bestMemShort {
				bestMemShort, memShortNode = short, nd
			}
		case conflictor < 0:
			conflictor, conflictNode = r, nd
		}
	}

	switch {
	case !anyAllowed:
		d.Binding = BindPins
		d.Reasons = append(d.Reasons, "pinned-node set rules out every node in the cluster")
	case probe < 0 && conflictor < 0:
		d.Binding = BindMemory
		d.Reasons = append(d.Reasons,
			fmt.Sprintf("no node can hold a %.0f MB instance: closest is %s, short by %.0f MB",
				a.MemoryMB(), nodeName(p, memShortNode), bestMemShort))
	case probe < 0:
		d.Binding = BindAntiCollocation
		d.Reasons = append(d.Reasons,
			fmt.Sprintf("every memory-feasible node hosts a conflictor: %s holds %q",
				nodeName(p, conflictNode), p.Apps[conflictor].Name))
	default:
		x.probeBinding(d, probe)
	}
	d.Reasons = append(d.Reasons, "binding constraint: "+d.Binding)
}

// probeBinding assesses the final placement plus one instance of the
// denied application on node probe. An infeasible probe means CPU (or,
// for one of several web apps, flow routing) bound; a feasible one
// means the optimizer preferred the adopted utility vector.
func (x *explainer) probeBinding(d *AppDecision, probe cluster.NodeID) {
	p := x.p
	cand := x.res.Placement.Clone()
	cand.Add(d.App, probe)
	feasible, util := x.probeUtility(cand, d.App)
	if !feasible {
		binding, why := BindCPUCapacity, "its CPU floor does not fit the remaining capacity"
		// The probe aimed the allocator at cand, so al.webs are its placed
		// web apps; two or more share the max-flow routing.
		if p.Apps[d.App].Kind == KindWeb && len(x.ar.al.webs) > 1 {
			binding, why = BindFlowCapacity, "its λ·c stability demand cannot be routed through the web flow network"
		}
		d.Binding = binding
		d.Reasons = append(d.Reasons, fmt.Sprintf("an instance on %s fits memory, but %s", nodeName(p, probe), why))
		return
	}
	d.Binding = BindUtility
	d.UtilityDelta = util - d.Utility
	d.Reasons = append(d.Reasons,
		fmt.Sprintf("an instance on %s is feasible (utility %.3f) but the adopted vector is lexicographically better",
			nodeName(p, probe), util))
}

// probeUtility reports whether the candidate placement is feasible and,
// if so, the utility level the probed application could reach, found by
// the solver's own level search (allocator.level). Every other
// application is frozen at its adopted allocation, so only the probed
// app's level is searched — a full lexicographic re-solve here would
// cost an order of magnitude more per denial. Without adopted
// allocations to freeze against (res.Eval nil), all apps share the
// searched level, which still separates feasible from infeasible.
func (x *explainer) probeUtility(cand *Placement, app int) (bool, float64) {
	t, al, res := x.table(), &x.ar.al, x.res
	al.aim(t, cand)
	if res.Eval != nil {
		for _, placed := range [][]int{al.jobs, al.webs} {
			for _, other := range placed {
				if other != app && other < len(res.Eval.PerApp) {
					al.freeze(other, res.Eval.PerApp[other])
				}
			}
		}
	}
	// Memory and collocation are not re-checked: the candidate is the
	// final placement plus one instance on a node where fits accepted it,
	// and no other node changed.
	if !al.feasible(rpf.MinUtility, -1) {
		return false, 0
	}
	return true, min(al.level(), t.utilityCap(app))
}

// diagnoseLostNodes explains a move, shrink or eviction: for each node
// the application lost, ask fit whether it could have stayed there
// under the final placement. A memory or collocation refusal on every
// lost node pins the binding constraint; otherwise the optimizer traded
// the old spot away for utility.
func (x *explainer) diagnoseLostNodes(d *AppDecision, lost []cluster.NodeID) {
	p := x.p
	a := p.Apps[d.App]
	stayable := false
	for _, id := range lost {
		// A node that left the inventory binds on memory too: its
		// capacity is gone.
		binding, reason := BindMemory, ""
		if nd, ok := p.Cluster.Node(id); !ok {
			reason = fmt.Sprintf("node %d left the inventory", int(id))
		} else {
			switch ok, short, conflict := x.fit(id, d.App); {
			case ok:
				stayable = true
				continue
			case short > 0:
				reason = fmt.Sprintf("staying on %s now overflows memory by %.0f MB", nd.Name, short)
			default:
				binding = BindAntiCollocation
				reason = fmt.Sprintf("staying on %s would collocate with %q, which %q must not share a node with",
					nd.Name, p.Apps[conflict].Name, a.Name)
			}
		}
		if d.Binding == "" {
			d.Binding = binding
		}
		d.Reasons = append(d.Reasons, reason)
	}
	if d.Binding == "" {
		d.Binding = BindUtility
		d.Reasons = append(d.Reasons, "the old node set remains feasible; the adopted vector is lexicographically better")
	} else if stayable {
		d.Reasons = append(d.Reasons, "some lost nodes remain feasible; the constrained ones forced the change")
	}
	d.Reasons = append(d.Reasons, "binding constraint: "+d.Binding)
}

// diffNodes returns the nodes of a not in b. Placement keeps each
// application's nodes ascending, so the result is ascending too.
func diffNodes(a, b []cluster.NodeID) []cluster.NodeID {
	return slices.DeleteFunc(slices.Clone(a), func(x cluster.NodeID) bool { return slices.Contains(b, x) })
}

func nodeName(p *Problem, id cluster.NodeID) string {
	if nd, ok := p.Cluster.Node(id); ok {
		return nd.Name
	}
	return fmt.Sprintf("node %d", int(id))
}

func nodeNames(p *Problem, ids []cluster.NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += nodeName(p, id)
	}
	return s
}
