package core

// The aggregate-utility annealing baseline lives in this test file: it
// is the comparison point of one ablation, not part of the paper's
// algorithm, so it stays out of the package's API.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
	"dynplace/internal/trace"
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
	tbl := new(table)
	tbl.build(p)
	repaired, err := repair(tbl, current)
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
		for p.Apps[app].Kind == KindBatch && cand.Placed(app) {
			cand.Remove(app, cand.NodesOf(app)[0])
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

// starvationScenario builds the configuration from the paper's Section 2
// argument: one application whose goal is already blown competes with
// healthy ones for a single node. An aggregate-utility maximizer starves
// the hopeless one; the max-min extension does not.
func starvationScenario(t *testing.T) *Problem {
	t.Helper()
	cl, err := cluster.Uniform(1, 1000, 2000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	// The hopeless job needs 200 s at full speed with a goal of 10 s.
	hopeless := batchApp("hopeless", 100000, 500, 750, 0, 10)
	// Two healthy jobs; together they fill the node's memory, so running
	// both excludes the hopeless one.
	healthy1 := batchApp("healthy1", 2000, 500, 625, 0, 60)
	healthy2 := batchApp("healthy2", 2000, 500, 625, 0, 60)
	return &Problem{
		Cluster: cl, Cycle: 1,
		Apps:              []*Application{hopeless, healthy1, healthy2},
		Costs:             cluster.FreeCostModel(),
		ExactHypothetical: true,
	}
}

func TestMaxMinServesTheWorst(t *testing.T) {
	p := starvationScenario(t)
	res := mustOptimize(t, p)
	if !res.Placement.Placed(0) {
		t.Fatalf("max-min must run the worst-off job; placement %v / %v / %v",
			res.Placement.NodesOf(0), res.Placement.NodesOf(1), res.Placement.NodesOf(2))
	}
}

func TestAnnealingStarvesTheWorst(t *testing.T) {
	p := starvationScenario(t)
	res, err := OptimizeAnnealing(p, AnnealingOptions{Seed: 1, Iterations: 3000})
	if err != nil {
		t.Fatalf("OptimizeAnnealing: %v", err)
	}
	// The aggregate objective prefers the two healthy jobs (their summed
	// utility beats hopeless + one healthy).
	if res.Placement.Placed(0) {
		t.Fatal("aggregate-utility annealing unexpectedly ran the hopeless job")
	}
	if !res.Placement.Placed(1) || !res.Placement.Placed(2) {
		t.Fatalf("annealing should run both healthy jobs: %v / %v",
			res.Placement.NodesOf(1), res.Placement.NodesOf(2))
	}
}

func TestAnnealingFindsObviousPlacement(t *testing.T) {
	// Sanity: with abundant capacity, annealing places everything.
	cl, err := cluster.Uniform(3, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	apps := []*Application{
		batchApp("a", 4000, 1000, 750, 0, 30),
		batchApp("b", 4000, 1000, 750, 0, 30),
		batchApp("c", 4000, 1000, 750, 0, 30),
	}
	p := &Problem{Cluster: cl, Cycle: 1, Apps: apps, Costs: cluster.FreeCostModel()}
	res, err := OptimizeAnnealing(p, AnnealingOptions{Seed: 7})
	if err != nil {
		t.Fatalf("OptimizeAnnealing: %v", err)
	}
	for i := range apps {
		if !res.Placement.Placed(i) {
			t.Fatalf("app %d unplaced with free capacity", i)
		}
	}
}

func TestAnnealingDeterministicPerSeed(t *testing.T) {
	p1 := starvationScenario(t)
	p2 := starvationScenario(t)
	r1, err := OptimizeAnnealing(p1, AnnealingOptions{Seed: 42, Iterations: 500})
	if err != nil {
		t.Fatalf("OptimizeAnnealing: %v", err)
	}
	r2, err := OptimizeAnnealing(p2, AnnealingOptions{Seed: 42, Iterations: 500})
	if err != nil {
		t.Fatalf("OptimizeAnnealing: %v", err)
	}
	if r1.Placement.Changes(r2.Placement) != 0 {
		t.Fatal("annealing not deterministic for a fixed seed")
	}
}

func TestAggregateSoftensSentinel(t *testing.T) {
	ev := &Evaluation{Utilities: []float64{rpf.MinUtility, 0.5}}
	got := aggregate(ev)
	if got < -20 || got > 0 {
		t.Fatalf("aggregate = %v, want softened sentinel (≈ -9.5)", got)
	}
}

func TestAnnealingValidates(t *testing.T) {
	if _, err := OptimizeAnnealing(&Problem{}, AnnealingOptions{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// BenchmarkAblationMaxMinVsAnnealing compares the paper's lexicographic
// max-min objective with the aggregate-utility simulated-annealing
// baseline (the approach of Wang et al., ICAC'07, that Section 2 argues
// against): same evaluation machinery, different objective. The
// interesting outputs are the worst application's utility (fairness /
// starvation) and the aggregate achieved.
func BenchmarkAblationMaxMinVsAnnealing(b *testing.B) {
	// 8 nodes comfortably satisfy the web app (λ·c = 81,600 MHz); 30
	// jobs compete for 24 memory slots, including a hopeless straggler
	// whose goal is already unreachable.
	cl, err := cluster.Uniform(8, 15600, 16384)
	if err != nil {
		b.Fatal(err)
	}
	mkApps := func() []*Application {
		apps := []*Application{{
			Name: "web", Kind: KindWeb, Web: trace.Experiment3WebApp(),
		}}
		for i := 0; i < 30; i++ {
			deadline := 40000.0
			if i == 0 {
				deadline = 2000 // hopeless: needs 4,400 s even flat out
			}
			spec := batch.SingleStage(fmt.Sprintf("job-%d", i),
				68640000/4, 3900, 4320, 0, deadline)
			apps = append(apps, &Application{
				Name: spec.Name, Kind: KindBatch, Job: spec,
			})
		}
		return apps
	}
	var out string
	for i := 0; i < b.N; i++ {
		pMaxMin := &Problem{Cluster: cl, Now: 0, Cycle: 600,
			Apps: mkApps(), Costs: cluster.FreeCostModel()}
		resMaxMin, err := Optimize(pMaxMin)
		if err != nil {
			b.Fatal(err)
		}
		pAnneal := &Problem{Cluster: cl, Now: 0, Cycle: 600,
			Apps: mkApps(), Costs: cluster.FreeCostModel()}
		resAnneal, err := OptimizeAnnealing(pAnneal,
			AnnealingOptions{Seed: 1, Iterations: 6000})
		if err != nil {
			b.Fatal(err)
		}
		out = fmt.Sprintf(
			"Ablation — objective: lexicographic max-min vs aggregate annealing\n"+
				"  max-min:    worst %.3f  aggregate %.2f  hopeless placed: %v\n"+
				"  aggregate:  worst %.3f  aggregate %.2f  hopeless placed: %v\n",
			resMaxMin.Eval.Vector.Min(), aggregate(resMaxMin.Eval),
			resMaxMin.Placement.Placed(1),
			resAnneal.Eval.Vector.Min(), aggregate(resAnneal.Eval),
			resAnneal.Placement.Placed(1))
	}
	b.Log("\n" + out)
}
