package core

import (
	"math/rand"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// TestAllocatorAgainstGridSearch compares the lexicographic max-min
// allocator with an exhaustive grid search over CPU divisions on a
// single node.
func TestAllocatorAgainstGridSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		nodeCPU := 1000.0
		cl := singleNode(t, nodeCPU, 1e9)
		nJobs := 2 + rng.Intn(2)
		apps := make([]*Application, nJobs)
		pl := NewPlacement(nJobs)
		for i := range apps {
			apps[i] = batchApp("j", 500+rng.Float64()*8000,
				300+rng.Float64()*900, 1, 0, 3+rng.Float64()*30)
			pl.Add(i, 0)
		}
		p := &Problem{Cluster: cl, Now: 0, Cycle: 1, Apps: apps,
			Costs: cluster.FreeCostModel(), ExactHypothetical: true}
		var tbl table
		tbl.build(p)
		var al allocator
		al.aim(&tbl, pl)
		perApp, _, ok, err := al.solve(false)
		if err != nil || !ok {
			t.Fatalf("trial %d: solver infeasible (err %v)", trial, err)
		}
		solverVec := allocationVector(apps, perApp)

		// Exhaustive grid search over divisions of the node's CPU.
		const steps = 50
		best := bruteForceSplit(apps, nodeCPU, steps)
		if solverVec.Less(best) {
			// Tolerate grid-granularity wins only.
			diff := best.Min() - solverVec.Min()
			if diff > nodeCPU/steps/100 && diff > 0.02 {
				t.Fatalf("trial %d: solver vector %v worse than brute force %v",
					trial, solverVec, best)
			}
		}
	}
}

// allocationVector scores an allocation by each job's utility at its
// average speed.
func allocationVector(apps []*Application, perApp []float64) rpf.Vector {
	us := make([]float64, len(apps))
	for i, a := range apps {
		us[i] = a.Job.UtilityAtSpeed(perApp[i], a.Done, 0)
	}
	return rpf.NewVector(us)
}

// bruteForceSplit enumerates CPU splits on a grid and returns the
// lexicographically best utility vector.
func bruteForceSplit(apps []*Application, total float64, steps int) rpf.Vector {
	unit := total / float64(steps)
	var best rpf.Vector
	var recurse func(idx int, remaining int, alloc []float64)
	recurse = func(idx int, remaining int, alloc []float64) {
		if idx == len(apps)-1 {
			alloc[idx] = float64(remaining) * unit
			vec := allocationVector(apps, alloc)
			if best == nil || best.Less(vec) {
				best = vec
			}
			return
		}
		for k := 0; k <= remaining; k++ {
			alloc[idx] = float64(k) * unit
			recurse(idx+1, remaining-k, alloc)
		}
	}
	recurse(0, steps, make([]float64, len(apps)))
	return best
}

// TestOptimizerAgainstExhaustivePlacement compares the nested-loop
// heuristic with exhaustive enumeration of every placement of up to
// three jobs on two nodes.
func TestOptimizerAgainstExhaustivePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		cl, err := cluster.Uniform(2, 1000, 1600)
		if err != nil {
			t.Fatalf("Uniform: %v", err)
		}
		nJobs := 2 + rng.Intn(2)
		apps := make([]*Application, nJobs)
		for i := range apps {
			apps[i] = batchApp("j", 500+rng.Float64()*6000,
				300+rng.Float64()*900, 700+rng.Float64()*200, 0, 3+rng.Float64()*25)
		}
		p := &Problem{Cluster: cl, Now: 0, Cycle: 1, Apps: apps,
			Costs: cluster.FreeCostModel(), ExactHypothetical: true}

		// Exhaustive: each job is unplaced, on node 0, or on node 1.
		var best rpf.Vector
		assign := make([]int, nJobs)
		var walk func(i int)
		walk = func(i int) {
			if i == nJobs {
				pl := NewPlacement(nJobs)
				for j, a := range assign {
					if a > 0 {
						pl.Add(j, cluster.NodeID(a-1))
					}
				}
				ev, err := Evaluate(p, pl)
				if err != nil || !ev.Feasible {
					return
				}
				if best == nil || best.Less(ev.Vector) {
					best = ev.Vector
				}
				return
			}
			for a := 0; a <= 2; a++ {
				assign[i] = a
				walk(i + 1)
			}
		}
		walk(0)

		res := mustOptimize(t, p)
		// The heuristic must come within the comparison resolution of
		// the exhaustive optimum.
		if res.Eval.Vector.Less(best) {
			gap := best.Min() - res.Eval.Vector.Min()
			if gap > 2*DefaultEpsilon {
				t.Fatalf("trial %d: heuristic %v vs optimum %v (gap %v)",
					trial, res.Eval.Vector, best, gap)
			}
		}
	}
}
