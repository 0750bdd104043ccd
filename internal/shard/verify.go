package shard

import (
	"errors"
	"fmt"

	"dynplace/internal/core"
)

// ErrVerify reports a merged placement violating a global constraint.
var ErrVerify = errors.New("shard: global constraint violated")

// capTolerance absorbs float accumulation across per-zone allocations.
const capTolerance = 1e-6

// Verify checks a Result against the global problem's constraints,
// independent of how the result was produced: every instance lands on a
// real node, batch jobs hold at most one instance, per-node CPU and
// memory stay within capacity, anti-collocation holds, and the
// evaluation's bookkeeping (PerApp, Utilities, WebShares) covers every
// application. The package's tests and dynbench's sharded workload run
// it over merged sharded solves, so the decomposition's safety is
// measured rather than assumed.
func Verify(p *core.Problem, res *core.Result) error {
	n := p.Cluster.Len()
	cpu := make([]float64, n)
	mem := make([]float64, n)
	byNode := make([][]int, n)
	if len(res.Eval.PerApp) != len(p.Apps) || len(res.Eval.Utilities) != len(p.Apps) {
		return fmt.Errorf("%w: evaluation covers %d/%d apps",
			ErrVerify, len(res.Eval.PerApp), len(p.Apps))
	}
	for i, a := range p.Apps {
		nodes := res.Placement.NodesOf(i)
		if a.Kind == core.KindBatch && len(nodes) > 1 {
			return fmt.Errorf("%w: batch job %q placed on %d nodes", ErrVerify, a.Name, len(nodes))
		}
		shares := res.Eval.WebShares[i]
		if a.Kind == core.KindWeb && len(nodes) > 0 && len(shares) != len(nodes) {
			return fmt.Errorf("%w: web app %q has %d instances but %d shares",
				ErrVerify, a.Name, len(nodes), len(shares))
		}
		for k, nd := range nodes {
			if int(nd) < 0 || int(nd) >= n {
				return fmt.Errorf("%w: app %q placed on nonexistent node %d", ErrVerify, a.Name, nd)
			}
			mem[nd] += a.MemoryMB()
			byNode[nd] = append(byNode[nd], i)
			if a.Kind == core.KindWeb {
				cpu[nd] += shares[k]
			} else {
				cpu[nd] += res.Eval.PerApp[i]
			}
		}
	}
	for _, nd := range p.Cluster.Nodes() {
		if cpu[nd.ID] > nd.CPUMHz*(1+capTolerance) {
			return fmt.Errorf("%w: node %d CPU %.1f MHz over %.1f MHz capacity",
				ErrVerify, nd.ID, cpu[nd.ID], nd.CPUMHz)
		}
		if mem[nd.ID] > nd.MemMB*(1+capTolerance) {
			return fmt.Errorf("%w: node %d memory %.1f MB over %.1f MB capacity",
				ErrVerify, nd.ID, mem[nd.ID], nd.MemMB)
		}
		for x, i := range byNode[nd.ID] {
			for _, j := range byNode[nd.ID][x+1:] {
				if conflicts(p.Apps[i], p.Apps[j]) {
					return fmt.Errorf("%w: %q and %q anti-collocated but share node %d",
						ErrVerify, p.Apps[i].Name, p.Apps[j].Name, nd.ID)
				}
			}
		}
	}
	return nil
}

// conflicts mirrors the optimizer's symmetric anti-collocation relation.
func conflicts(a, b *core.Application) bool {
	for _, n := range a.AntiCollocate {
		if n == b.Name {
			return true
		}
	}
	for _, n := range b.AntiCollocate {
		if n == a.Name {
			return true
		}
	}
	return false
}
