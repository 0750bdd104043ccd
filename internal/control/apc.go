package control

import (
	"fmt"

	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/scheduler"
)

// APC is the batch scheduling policy of the Application Placement
// Controller: each cycle it places the live jobs on the offered nodes
// through the same problem builder and optimizer the Planner uses
// (which orders queued work lowest relative performance first), under
// the cost model the Runner hands it. Policy mode with APC therefore
// decides exactly as batch-only dynamic mode does.
//
// DynamicConfig's Forecast and Explain do not apply: APC solves batch
// work only and keeps no plan.
type APC struct {
	solver *solver
}

var _ scheduler.Policy = (*APC)(nil)

// NewAPC builds the policy with the given optimizer tuning, validating
// the shard count.
func NewAPC(dyn DynamicConfig) (*APC, error) {
	s, err := newSolver(dyn)
	if err != nil {
		return nil, err
	}
	return &APC{solver: s}, nil
}

// Name implements scheduler.Policy.
func (*APC) Name() string { return "APC" }

// Schedule implements scheduler.Policy.
func (a *APC) Schedule(now, cycle float64, jobs []*scheduler.Job, nodes []scheduler.NodeCapacity, costs cluster.CostModel) ([]scheduler.Assignment, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: APC offered no nodes", core.ErrInfeasible)
	}
	offered := make([]cluster.Node, len(nodes))
	for i, n := range nodes {
		offered[i] = cluster.Node{ID: n.ID, Name: fmt.Sprintf("n%d", n.ID), CPUMHz: n.CPUMHz, MemMB: n.MemMB}
	}
	sol, err := a.solver.solve(nil, now, cycle, costs, offered, nil, nil, jobs)
	if err != nil {
		return nil, fmt.Errorf("control: APC: %w", err)
	}
	return sol.assignments(), nil
}
