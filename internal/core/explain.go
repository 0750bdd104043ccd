package core

import (
	"fmt"
	"math"
	"sort"

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
// application? If memory or anti-collocation forbid it, that constraint
// bound; if a probe instance evaluates infeasible, CPU (or multi-web
// flow) capacity bound; if the probe is feasible, the decision was
// utility-driven and the foregone utility is reported.
//
// before, when non-nil, supplies the previous cycle's utility per
// application (NaN or missing entries are ignored) and feeds
// UtilityDelta. The call costs O(apps × nodes) plus, per denied
// application with a memory- and collocation-clean node, one probe of
// that node: at most 62 feasibility tests (the floor, level 1 and the
// solver's 60 halvings) — once per cycle, not per candidate, so
// explanations stay out of the optimizer's hot path.
func Explain(p *Problem, res *Result, before []float64) *Explanation {
	ex := &Explanation{
		Decisions: make([]AppDecision, len(p.Apps)),
		Repaired:  res.Repaired,
	}
	// One pass over the final placement builds the node → residents
	// index the diagnoses scan; per-node OnNode lookups would make each
	// denial O(nodes × apps) and dominate the whole call.
	residents := make(map[cluster.NodeID][]int)
	for app := 0; app < res.Placement.Apps(); app++ {
		for _, n := range res.Placement.NodesOf(app) {
			residents[n] = append(residents[n], app)
		}
	}
	for i := range p.Apps {
		ex.Decisions[i] = explainApp(p, res, before, i, residents)
	}
	return ex
}

func explainApp(p *Problem, res *Result, before []float64, app int,
	residents map[cluster.NodeID][]int) AppDecision {
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
		diagnoseDenied(p, res, &d, residents)
		return d
	case len(was) == 0:
		d.Outcome = OutcomePlaced
		d.Reasons = []string{fmt.Sprintf("placed on %s", nodeNames(p, now))}
		return d
	case len(now) == 0:
		d.Outcome = OutcomeEvicted
		diagnoseLostNodes(p, &d, was, residents)
		return d
	case sameNodes(was, now):
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
	diagnoseLostNodes(p, &d, lost, residents)
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
// unplaced: scan every node it may use under the final placement, and
// if one passes memory and collocation, probe it with a real candidate
// evaluation.
func diagnoseDenied(p *Problem, res *Result, d *AppDecision,
	index map[cluster.NodeID][]int) {
	a := p.Apps[d.App]
	var (
		anyAllowed   bool
		bestMemShort = -1.0 // smallest memory shortfall seen
		memShortNode cluster.NodeID
		conflictor   = -1 // a conflicting resident on a memory-feasible node
		conflictNode cluster.NodeID
		probe        = cluster.NodeID(-1) // best memory+collocation-clean node
		probeCPU     float64
	)
	for _, nd := range p.Cluster.Nodes() {
		if !a.allows(nd.ID) {
			continue
		}
		anyAllowed = true
		residents := index[nd.ID]
		mem := a.MemoryMB()
		for _, r := range residents {
			mem += p.Apps[r].MemoryMB()
		}
		if mem > nd.MemMB+capTolerance {
			if short := mem - nd.MemMB; bestMemShort < 0 || short < bestMemShort {
				bestMemShort, memShortNode = short, nd.ID
			}
			continue
		}
		clean := true
		for _, r := range residents {
			if conflictsWith(a, p.Apps[r]) {
				clean = false
				if conflictor < 0 {
					conflictor, conflictNode = r, nd.ID
				}
				break
			}
		}
		if clean && (probe < 0 || nd.CPUMHz > probeCPU) {
			probe, probeCPU = nd.ID, nd.CPUMHz
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
		probeBinding(p, res, d, probe)
	}
	d.Reasons = append(d.Reasons, "binding constraint: "+d.Binding)
}

// probeBinding assesses the final placement plus one instance of the
// denied application on node probe. An infeasible probe means CPU (or,
// for one of several web apps, flow routing) bound; a feasible one
// means the optimizer preferred the adopted utility vector.
func probeBinding(p *Problem, res *Result, d *AppDecision, probe cluster.NodeID) {
	cand := res.Placement.Clone()
	cand.Add(d.App, probe)
	feasible, util := probeUtility(p, res, cand, d.App)
	if !feasible {
		a := p.Apps[d.App]
		if a.Kind == KindWeb && placedWebs(p, cand) > 1 {
			d.Binding = BindFlowCapacity
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("an instance on %s fits memory, but its λ·c stability demand cannot be routed through the web flow network",
					nodeName(p, probe)))
		} else {
			d.Binding = BindCPUCapacity
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("an instance on %s fits memory, but its CPU floor does not fit the remaining capacity",
					nodeName(p, probe)))
		}
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
func probeUtility(p *Problem, res *Result, cand *Placement, app int) (bool, float64) {
	ar := arenas.Get().(*arena)
	defer arenas.Put(ar)
	ar.tbl.build(p)
	al := &ar.al
	al.aim(&ar.tbl, cand)
	if res.Eval != nil {
		for _, placed := range [][]int{al.jobs, al.webs} {
			for _, other := range placed {
				if other != app && other < len(res.Eval.PerApp) {
					al.freeze(other, res.Eval.PerApp[other])
				}
			}
		}
	}
	// No memoryFits here: the base placement is the optimizer's feasible
	// output and diagnoseDenied only selects a probe node with verified
	// memory headroom and no conflictor, so the O(nodes × apps) memory
	// re-scan would be pure overhead.
	if !al.feasible(rpf.MinUtility, -1) {
		return false, 0
	}
	return true, min(al.level(), ar.tbl.utilityCap(app))
}

// diagnoseLostNodes explains a move, shrink or eviction: for each node
// the application lost, check whether it could have stayed there under
// the final placement. A memory or collocation violation on every lost
// node pins the binding constraint; otherwise the optimizer traded the
// old spot away for utility.
func diagnoseLostNodes(p *Problem, d *AppDecision, lost []cluster.NodeID,
	index map[cluster.NodeID][]int) {
	a := p.Apps[d.App]
	stayable := false
	for _, id := range lost {
		nd, ok := p.Cluster.Node(id)
		if !ok {
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("node %d left the inventory", int(id)))
			if d.Binding == "" {
				d.Binding = BindMemory // node loss: its capacity is gone
			}
			continue
		}
		residents := index[id]
		mem := a.MemoryMB()
		conflict := -1
		for _, r := range residents {
			mem += p.Apps[r].MemoryMB()
			if conflict < 0 && conflictsWith(a, p.Apps[r]) {
				conflict = r
			}
		}
		switch {
		case mem > nd.MemMB+capTolerance:
			if d.Binding == "" || d.Binding == BindUtility {
				d.Binding = BindMemory
			}
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("staying on %s now overflows memory by %.0f MB", nd.Name, mem-nd.MemMB))
		case conflict >= 0:
			if d.Binding == "" || d.Binding == BindUtility {
				d.Binding = BindAntiCollocation
			}
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("staying on %s would collocate with %q, which %q must not share a node with",
					nd.Name, p.Apps[conflict].Name, a.Name))
		default:
			stayable = true
		}
	}
	if d.Binding == "" {
		d.Binding = BindUtility
		d.Reasons = append(d.Reasons, "the old node set remains feasible; the adopted vector is lexicographically better")
	} else if stayable {
		d.Reasons = append(d.Reasons, "some lost nodes remain feasible; the constrained ones forced the change")
	}
	d.Reasons = append(d.Reasons, "binding constraint: "+d.Binding)
}

// placedWebs counts web applications with at least one instance.
func placedWebs(p *Problem, pl *Placement) int {
	n := 0
	for i, a := range p.Apps {
		if a.Kind == KindWeb && pl.Placed(i) {
			n++
		}
	}
	return n
}

// sameNodes reports set equality of two sorted node lists.
func sameNodes(a, b []cluster.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffNodes returns the sorted elements of a not present in b.
func diffNodes(a, b []cluster.NodeID) []cluster.NodeID {
	var out []cluster.NodeID
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
