package control

import (
	"math"

	"dynplace/internal/core"
	"dynplace/internal/shard"
)

// ZoneMove is the shard rebalancer's provenance for one application:
// the zone it left (-1 on first touch), the zone it was assigned to,
// and the trigger (see the shard package's Trigger* constants).
type ZoneMove struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Trigger string `json:"trigger"`
}

// AppExplanation is one application's slice of a cycle's decision
// provenance: what happened to it, which constraint bound, the utility
// it won or lost, and the human-readable reason chain.
type AppExplanation struct {
	// App and Kind identify the application ("web" or "batch").
	App  string `json:"app"`
	Kind string `json:"kind"`
	// Outcome is one of the core Outcome* constants (placed, kept,
	// moved, expanded, shrunk, evicted, denied, idle).
	Outcome string `json:"outcome"`
	// Binding is the constraint that bound (core Bind* constants); empty
	// when nothing was lost.
	Binding string `json:"binding,omitempty"`
	// Utility is the predicted relative performance under the adopted
	// placement; UtilityDelta the change against the previous cycle (or,
	// for a utility-bound denial, the foregone utility).
	Utility      float64 `json:"utility"`
	UtilityDelta float64 `json:"utilityDelta"`
	// Nodes names the hosting nodes after this cycle.
	Nodes []string `json:"nodes,omitempty"`
	// Reasons is the reason chain, most specific first.
	Reasons []string `json:"reasons,omitempty"`
	// Zone carries the shard rebalancer's move stamp when sharding is on
	// and the application's zone assignment changed this cycle.
	Zone *ZoneMove `json:"zone,omitempty"`
}

// PlanExplanation is the per-cycle decision provenance the planner
// assembles from the optimizer's structured reasons and the shard
// rebalancer's move stamps: one AppExplanation per application plus
// outcome totals. The daemon keeps a bounded ring of these (the flight
// recorder) and serves them on /v1/explain.
type PlanExplanation struct {
	// Apps holds one entry per application, web apps first
	// (registration order), then live jobs (submission order).
	Apps []AppExplanation `json:"apps"`
	// Counts totals the outcomes ("placed": 2, "denied": 1, ...).
	Counts map[string]int `json:"counts"`
	// Repaired marks a cycle whose carried placement violated
	// constraints (e.g. after a node loss) and was repaired by eviction
	// before optimization.
	Repaired bool `json:"repaired,omitempty"`
	// Changes counts instance-level placement differences this cycle.
	Changes int `json:"changes"`
}

// explain builds the cycle's PlanExplanation from the solved problem
// and updates the previous-utility baseline the next cycle's deltas are
// computed against. Called only when DynamicConfig.Explain is set, so
// the reactive path pays nothing.
func (p *Planner) explain(problem *core.Problem, res *core.Result) *PlanExplanation {
	before := make([]float64, len(problem.Apps))
	for i, a := range problem.Apps {
		if u, ok := p.prevUtil[a.Name]; ok {
			before[i] = u
		} else {
			before[i] = math.NaN()
		}
	}
	ex := core.Explain(problem, res, before)

	var moves map[string]shard.Move
	if p.solver.coord != nil {
		ms := p.solver.coord.Moves()
		moves = make(map[string]shard.Move, len(ms))
		for _, m := range ms {
			moves[m.App] = m
		}
	}

	pe := &PlanExplanation{
		Apps:     make([]AppExplanation, len(ex.Decisions)),
		Counts:   make(map[string]int, 4),
		Repaired: ex.Repaired,
		Changes:  res.Changes,
	}
	for i, d := range ex.Decisions {
		a := problem.Apps[i]
		ae := AppExplanation{
			App:          a.Name,
			Kind:         a.Kind.String(),
			Outcome:      d.Outcome,
			Binding:      d.Binding,
			Utility:      d.Utility,
			UtilityDelta: d.UtilityDelta,
			Reasons:      d.Reasons,
		}
		for _, nd := range res.Placement.NodesOf(i) {
			if n, ok := problem.Cluster.Node(nd); ok {
				ae.Nodes = append(ae.Nodes, n.Name)
			}
		}
		if m, ok := moves[a.Name]; ok {
			ae.Zone = &ZoneMove{From: m.From, To: m.To, Trigger: m.Trigger}
		}
		pe.Counts[d.Outcome]++
		pe.Apps[i] = ae
	}

	next := make(map[string]float64, len(problem.Apps))
	for i, a := range problem.Apps {
		next[a.Name] = res.Eval.Utilities[i]
	}
	p.prevUtil = next
	return pe
}
