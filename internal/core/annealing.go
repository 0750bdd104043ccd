package core

import (
	"math"
	"math/rand"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// AnnealingOptions tunes OptimizeAnnealing.
type AnnealingOptions struct {
	// Seed drives the random walk (runs are deterministic per seed).
	Seed int64
	// Iterations bounds the number of candidate moves (default 2000).
	Iterations int
	// StartTemperature and EndTemperature bound the exponential cooling
	// schedule (defaults 0.5 → 0.005, in utility units).
	StartTemperature, EndTemperature float64
}

func (o AnnealingOptions) withDefaults() AnnealingOptions {
	if o.Iterations <= 0 {
		o.Iterations = 2000
	}
	if o.StartTemperature <= 0 {
		o.StartTemperature = 0.5
	}
	if o.EndTemperature <= 0 || o.EndTemperature >= o.StartTemperature {
		o.EndTemperature = 0.005
	}
	return o
}

// OptimizeAnnealing is a comparison baseline implementing the objective
// of the appliance-provisioning line of work the paper argues against
// (Wang et al., ICAC'07): maximize the *aggregate* utility Σ u_m with
// simulated annealing over placements, instead of the paper's
// lexicographic max-min. It shares the evaluation machinery (queueing
// model, hypothetical RPF, action costs), so the two objectives can be
// compared head to head: aggregate maximization gladly starves a
// hopeless application if its capacity buys more total utility
// elsewhere; the max-min extension does not.
func OptimizeAnnealing(p *Problem, opts AnnealingOptions) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

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

	ev, err := Evaluate(p, current)
	if err != nil {
		return nil, err
	}
	res.count(ev)
	if !ev.Feasible {
		return nil, ErrBadProblem
	}
	curScore := aggregate(ev)
	best, bestEval, bestScore := current.Clone(), ev, curScore

	for i := 0; i < opts.Iterations; i++ {
		frac := float64(i) / float64(opts.Iterations)
		temp := opts.StartTemperature *
			math.Pow(opts.EndTemperature/opts.StartTemperature, frac)

		cand := randomMove(p, current, rng)
		if cand == nil {
			continue
		}
		candEval, err := Evaluate(p, cand)
		if err != nil {
			return nil, err
		}
		res.count(candEval)
		if !candEval.Feasible {
			continue
		}
		candScore := aggregate(candEval)
		if candScore >= curScore ||
			rng.Float64() < math.Exp((candScore-curScore)/temp) {
			current, ev, curScore = cand, candEval, candScore
			if candScore > bestScore {
				best, bestEval, bestScore = cand.Clone(), candEval, candScore
			}
		}
	}

	res.Placement = best
	res.Eval = bestEval
	if p.Current != nil {
		res.Changes = best.Changes(p.Current)
	} else {
		res.Changes = best.Changes(NewPlacement(len(p.Apps)))
	}
	return res, nil
}

// aggregate scores an evaluation by total utility, with the MinUtility
// sentinel softened so a single unplaced app does not dwarf the sum.
func aggregate(ev *Evaluation) float64 {
	var sum float64
	for _, u := range ev.Utilities {
		if u <= rpf.MinUtility {
			u = -10
		} else if u < -10 {
			u = -10
		}
		sum += u
	}
	return sum
}

// randomMove proposes one random placement mutation: place an unplaced
// app on a random allowed node, move an instance, or remove one.
func randomMove(p *Problem, current *Placement, rng *rand.Rand) *Placement {
	if len(p.Apps) == 0 || p.Cluster.Len() == 0 {
		return nil
	}
	cand := current.Clone()
	app := rng.Intn(len(p.Apps))
	node := cluster.NodeID(rng.Intn(p.Cluster.Len()))
	if !p.Apps[app].allows(node) {
		return nil
	}
	switch rng.Intn(3) {
	case 0: // place / add instance
		if p.Apps[app].Kind == KindBatch {
			cand.Clear(app)
		}
		cand.Add(app, node)
	case 1: // move an instance to the drawn node
		nodes := cand.NodesOf(app)
		if len(nodes) == 0 {
			return nil
		}
		cand.Remove(app, nodes[rng.Intn(len(nodes))])
		cand.Add(app, node)
	default: // remove an instance
		nodes := cand.NodesOf(app)
		if len(nodes) == 0 {
			return nil
		}
		cand.Remove(app, nodes[rng.Intn(len(nodes))])
	}
	return cand
}
