package core

import (
	"math"
	"math/rand"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
	"dynplace/internal/txn"
)

func singleNode(t *testing.T, cpu, mem float64) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Uniform(1, cpu, mem)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return cl
}

func mustEval(t *testing.T, p *Problem, pl *Placement) *Evaluation {
	t.Helper()
	ev, err := Evaluate(p, pl)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return ev
}

func TestSingleJobGetsFullSpeed(t *testing.T) {
	cl := singleNode(t, 1000, 2000)
	j1 := batchApp("J1", 4000, 1000, 750, 0, 20)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1, Apps: []*Application{j1}, ExactHypothetical: true}
	pl := NewPlacement(1)
	pl.Add(0, 0)
	ev := mustEval(t, p, pl)
	if !ev.Feasible {
		t.Fatal("infeasible")
	}
	if math.Abs(ev.PerApp[0]-1000) > 1e-6 {
		t.Fatalf("allocation = %v, want 1000 (full node)", ev.PerApp[0])
	}
	// Paper Figure 1 cycle 1: hypothetical utility 0.8 after running one
	// cycle at 1000 MHz.
	if math.Abs(ev.Utilities[0]-0.8) > 1e-6 {
		t.Fatalf("utility = %v, want 0.8", ev.Utilities[0])
	}
	if ev.OmegaG != 1000 {
		t.Fatalf("OmegaG = %v, want 1000", ev.OmegaG)
	}
}

func TestMemoryInfeasible(t *testing.T) {
	cl := singleNode(t, 1000, 1000)
	j1 := batchApp("J1", 4000, 1000, 750, 0, 20)
	j2 := batchApp("J2", 2000, 500, 750, 0, 17)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1, Apps: []*Application{j1, j2}}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(1, 0)
	ev := mustEval(t, p, pl)
	if ev.Feasible {
		t.Fatal("memory-violating placement reported feasible")
	}
}

func TestMinSpeedInfeasible(t *testing.T) {
	cl := singleNode(t, 1000, 4000)
	mk := func(name string) *Application {
		a := batchApp(name, 4000, 1000, 750, 0, 20)
		a.Job.Stages[0].MinSpeedMHz = 600
		return a
	}
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1, Apps: []*Application{mk("a"), mk("b")}}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(1, 0)
	// Two jobs each demanding ≥600 MHz on a 1000 MHz node cannot coexist.
	ev := mustEval(t, p, pl)
	if ev.Feasible {
		t.Fatal("min-speed violating placement reported feasible")
	}
}

func TestEqualJobsSplitEvenly(t *testing.T) {
	cl := singleNode(t, 1000, 2000)
	mk := func(name string) *Application { return batchApp(name, 4000, 1000, 750, 0, 20) }
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1,
		Apps: []*Application{mk("a"), mk("b")}, ExactHypothetical: true}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(1, 0)
	ev := mustEval(t, p, pl)
	if math.Abs(ev.PerApp[0]-500) > 1 || math.Abs(ev.PerApp[1]-500) > 1 {
		t.Fatalf("allocations = %v, want 500/500", ev.PerApp[:2])
	}
	if math.Abs(ev.Utilities[0]-ev.Utilities[1]) > 1e-6 {
		t.Fatalf("equal jobs got unequal utilities: %v", ev.Utilities)
	}
}

func TestWebAloneTakesItsCap(t *testing.T) {
	cl := singleNode(t, 20000, 8000)
	w := webApp("shop") // MaxPower 20000, cap utility at that allocation
	p := &Problem{Cluster: cl, Now: 0, Cycle: 60, Apps: []*Application{w}}
	pl := NewPlacement(1)
	pl.Add(0, 0)
	ev := mustEval(t, p, pl)
	if math.Abs(ev.PerApp[0]-w.Web.MaxDemand()) > 1 {
		t.Fatalf("allocation = %v, want max demand %v", ev.PerApp[0], w.Web.MaxDemand())
	}
	if math.Abs(ev.Utilities[0]-w.Web.UtilityCap()) > 1e-9 {
		t.Fatalf("utility = %v, want cap %v", ev.Utilities[0], w.Web.UtilityCap())
	}
}

func TestUnplacedWebIsWorstCase(t *testing.T) {
	cl := singleNode(t, 20000, 8000)
	w := webApp("shop")
	p := &Problem{Cluster: cl, Now: 0, Cycle: 60, Apps: []*Application{w}}
	ev := mustEval(t, p, NewPlacement(1))
	if ev.Utilities[0] != rpf.MinUtility {
		t.Fatalf("unplaced web utility = %v, want MinUtility", ev.Utilities[0])
	}
}

func TestWebAndJobEqualize(t *testing.T) {
	// One node shared by a web app and a job, both able to use the whole
	// node: the allocator must equalize their relative performance.
	cl := singleNode(t, 10000, 8000)
	w := &Application{
		Name: "web", Kind: KindWeb,
		Web: &txn.App{
			Name: "web", ArrivalRate: 50, DemandPerRequest: 100,
			BaseLatency: 0.02, GoalResponseTime: 0.2, MemoryMB: 1000,
		},
	}
	j := batchApp("job", 40000, 10000, 1000, 0, 20)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1,
		Apps: []*Application{w, j}, ExactHypothetical: true}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(1, 0)
	ev := mustEval(t, p, pl)
	if !ev.Feasible {
		t.Fatal("infeasible")
	}
	if math.Abs(ev.PerApp[0]+ev.PerApp[1]-10000) > 1 {
		t.Fatalf("node not fully used: %v", ev.PerApp)
	}
	if math.Abs(ev.Utilities[0]-ev.Utilities[1]) > 0.02 {
		t.Fatalf("utilities not equalized: web %v job %v", ev.Utilities[0], ev.Utilities[1])
	}
}

func TestLexicographicContinuation(t *testing.T) {
	// Two jobs on separate nodes: one tight goal (low cap), one loose.
	// After the tight job freezes at its cap, the loose one must keep
	// rising to its own cap (max-min extension, not plain max-min).
	cl, err := cluster.Uniform(2, 1000, 2000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	tight := batchApp("tight", 4000, 500, 750, 0, 9) // cap: (9−8)/9 ≈ 0.11
	loose := batchApp("loose", 1000, 1000, 750, 0, 50)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1,
		Apps: []*Application{tight, loose}, ExactHypothetical: true}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(1, 1)
	ev := mustEval(t, p, pl)
	// Tight job is capped by max speed 500; loose job must still get its
	// full useful 1000 rather than being held at the tight job's level.
	if math.Abs(ev.PerApp[0]-500) > 1 {
		t.Fatalf("tight alloc = %v, want 500", ev.PerApp[0])
	}
	if math.Abs(ev.PerApp[1]-1000) > 1 {
		t.Fatalf("loose alloc = %v, want 1000 (lexicographic continuation)", ev.PerApp[1])
	}
	if ev.Utilities[1] < 0.9 {
		t.Fatalf("loose utility = %v, want near cap", ev.Utilities[1])
	}
}

func TestWebSpansNodes(t *testing.T) {
	// A web app placed on two nodes can absorb both nodes' leftovers.
	cl, err := cluster.Uniform(2, 5000, 8000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	w := &Application{
		Name: "web", Kind: KindWeb,
		Web: &txn.App{
			Name: "web", ArrivalRate: 60, DemandPerRequest: 100,
			BaseLatency: 0.02, GoalResponseTime: 0.2,
			MaxPowerMHz: 9000, MemoryMB: 1000,
		},
	}
	j := batchApp("job", 40000, 2000, 1000, 0, 60)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 1,
		Apps: []*Application{w, j}, ExactHypothetical: true}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(0, 1)
	pl.Add(1, 0)
	ev := mustEval(t, p, pl)
	if !ev.Feasible {
		t.Fatal("infeasible")
	}
	// λc = 6000; the app needs > 6000 MHz, more than one node.
	if ev.PerApp[0] <= 6000 {
		t.Fatalf("web allocation %v did not span nodes", ev.PerApp[0])
	}
	shares := ev.WebShares[0]
	if len(shares) != 2 {
		t.Fatalf("WebShares = %v, want 2 entries", shares)
	}
	if math.Abs(shares[0]+shares[1]-ev.PerApp[0]) > 1 {
		t.Fatalf("shares %v do not sum to total %v", shares, ev.PerApp[0])
	}
	// Node 0 also hosts the job; the share there must fit.
	if shares[0] > 5000-ev.PerApp[1]+1 {
		t.Fatalf("node-0 share %v exceeds residual after job %v", shares[0], ev.PerApp[1])
	}
}

func TestTwoWebAppsFlowRouting(t *testing.T) {
	// Two web apps overlapping on a middle node: feasibility requires
	// the flow-based path.
	cl, err := cluster.Uniform(3, 4000, 8000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	mkWeb := func(name string) *Application {
		return &Application{
			Name: name, Kind: KindWeb,
			Web: &txn.App{
				Name: name, ArrivalRate: 30, DemandPerRequest: 100,
				BaseLatency: 0.02, GoalResponseTime: 0.2,
				MaxPowerMHz: 6000, MemoryMB: 1000,
			},
		}
	}
	a, b := mkWeb("a"), mkWeb("b")
	p := &Problem{Cluster: cl, Now: 0, Cycle: 60, Apps: []*Application{a, b}}
	pl := NewPlacement(2)
	pl.Add(0, 0)
	pl.Add(0, 1)
	pl.Add(1, 1)
	pl.Add(1, 2)
	ev := mustEval(t, p, pl)
	if !ev.Feasible {
		t.Fatal("infeasible")
	}
	// Total capacity 12000 ≥ both caps (6000 each): both reach cap.
	for i := range ev.PerApp[:2] {
		if math.Abs(ev.PerApp[i]-6000) > 1 {
			t.Fatalf("app %d alloc = %v, want 6000", i, ev.PerApp[i])
		}
	}
	// Per-node shares must respect node capacity.
	perNode := make([]float64, 3)
	for app, shares := range ev.WebShares {
		for s, nd := range pl.NodesOf(app) {
			perNode[nd] += shares[s]
		}
	}
	for n, load := range perNode {
		if load > 4000+1 {
			t.Fatalf("node %d overloaded: %v", n, load)
		}
	}
}

func TestJobCompletesWithinCycle(t *testing.T) {
	cl := singleNode(t, 1000, 2000)
	j := batchApp("quick", 500, 1000, 750, 0, 10)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 5, Apps: []*Application{j}, ExactHypothetical: true}
	pl := NewPlacement(1)
	pl.Add(0, 0)
	ev := mustEval(t, p, pl)
	// Completes at 0.5 s: utility = (10−0.5)/10 = 0.95.
	if math.Abs(ev.Utilities[0]-0.95) > 1e-9 {
		t.Fatalf("utility = %v, want 0.95 (exact completion)", ev.Utilities[0])
	}
}

func TestActionCosts(t *testing.T) {
	costs := cluster.DefaultCostModel()
	cl, err := cluster.Uniform(2, 1000, 2000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	fresh := batchApp("fresh", 10000, 1000, 1000, 0, 100)
	p := &Problem{Cluster: cl, Now: 0, Cycle: 10, Apps: []*Application{fresh}, Costs: costs}
	// The table reads Current, Started and LastNode through p at call
	// time, so one build serves every case below.
	var tbl table
	tbl.build(p)
	actionCost := func(_ *Problem, app int, target cluster.NodeID) float64 {
		return tbl.actionCost(app, target)
	}
	// Boot cost for a first start.
	if got := actionCost(p, 0, 0); got != 3.6 {
		t.Fatalf("boot cost = %v, want 3.6", got)
	}
	// Keep running in place: free.
	cur := NewPlacement(1)
	cur.Add(0, 0)
	p.Current = cur
	if got := actionCost(p, 0, 0); got != 0 {
		t.Fatalf("in-place cost = %v, want 0", got)
	}
	// Live migration to the other node.
	if got, want := actionCost(p, 0, 1), costs.Migrate(1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("migrate cost = %v, want %v", got, want)
	}
	// Suspended: resume in place vs move-and-resume.
	p.Current = NewPlacement(1)
	p.Apps[0].Started = true
	p.LastNode = []cluster.NodeID{1}
	if got, want := actionCost(p, 0, 1), costs.Resume(1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("resume cost = %v, want %v", got, want)
	}
	if got, want := actionCost(p, 0, 0), costs.Migrate(1000)+costs.Resume(1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("move-and-resume cost = %v, want %v", got, want)
	}
}

func TestCostsReduceProgress(t *testing.T) {
	cl := singleNode(t, 1000, 2000)
	j := batchApp("j", 10000, 1000, 1000, 0, 100)
	pl := NewPlacement(1)
	pl.Add(0, 0)

	free := &Problem{Cluster: cl, Now: 0, Cycle: 10, Apps: []*Application{j},
		Costs: cluster.FreeCostModel(), ExactHypothetical: true}
	costed := &Problem{Cluster: cl, Now: 0, Cycle: 10, Apps: []*Application{j},
		Costs: cluster.DefaultCostModel(), ExactHypothetical: true}
	evFree := mustEval(t, free, pl)
	evCost := mustEval(t, costed, pl)
	if evCost.Utilities[0] >= evFree.Utilities[0] {
		t.Fatalf("boot cost did not reduce predicted utility: %v vs %v",
			evCost.Utilities[0], evFree.Utilities[0])
	}
}

// Property: allocations never violate node CPU capacity and never exceed
// an app's useful maximum, on random feasible placements.
func TestQuickAllocationRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		nNodes := 1 + rng.Intn(4)
		cl, err := cluster.Uniform(nNodes, 2000+float64(rng.Intn(4))*1000, 8000)
		if err != nil {
			t.Fatalf("Uniform: %v", err)
		}
		nJobs := rng.Intn(6)
		apps := make([]*Application, 0, nJobs+1)
		for j := 0; j < nJobs; j++ {
			apps = append(apps, batchApp(
				"j", 1000+rng.Float64()*20000, 500+rng.Float64()*2000,
				500, 0, 5+rng.Float64()*100))
		}
		hasWeb := rng.Intn(2) == 0
		if hasWeb {
			apps = append(apps, &Application{
				Name: "w", Kind: KindWeb,
				Web: &txn.App{
					Name: "w", ArrivalRate: 20 + rng.Float64()*30,
					DemandPerRequest: 50, BaseLatency: 0.02,
					GoalResponseTime: 0.2, MaxPowerMHz: 2000 + rng.Float64()*6000,
					MemoryMB: 500,
				},
			})
		}
		p := &Problem{Cluster: cl, Now: 0, Cycle: 60, Apps: apps, ExactHypothetical: true}
		pl := NewPlacement(len(apps))
		for i, a := range apps {
			if a.Kind == KindBatch {
				if rng.Intn(3) > 0 {
					pl.Add(i, cluster.NodeID(rng.Intn(nNodes)))
				}
			} else {
				for n := 0; n < nNodes; n++ {
					if rng.Intn(2) == 0 {
						pl.Add(i, cluster.NodeID(n))
					}
				}
			}
		}
		ev := mustEval(t, p, pl)
		if !ev.Feasible {
			continue
		}
		// Per-node CPU loads.
		load := make([]float64, nNodes)
		for i, a := range apps {
			if a.Kind == KindBatch && pl.Placed(i) {
				load[pl.NodesOf(i)[0]] += ev.PerApp[i]
				capSpeed := a.Job.MaxSpeedAt(a.Done)
				if ev.PerApp[i] > capSpeed+1e-6 {
					t.Fatalf("trial %d: job alloc %v above speed cap %v", trial, ev.PerApp[i], capSpeed)
				}
			}
		}
		for app, shares := range ev.WebShares {
			for s, nd := range pl.NodesOf(app) {
				load[nd] += shares[s]
			}
		}
		for n, l := range load {
			nd, _ := cl.Node(cluster.NodeID(n))
			if l > nd.CPUMHz*(1+1e-6)+1e-3 {
				t.Fatalf("trial %d: node %d CPU overloaded: %v > %v", trial, n, l, nd.CPUMHz)
			}
		}
	}
}

// Property: adding CPU capacity never makes the evaluation vector worse.
func TestQuickMoreCapacityNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		nJobs := 1 + rng.Intn(4)
		apps := make([]*Application, 0, nJobs)
		for j := 0; j < nJobs; j++ {
			apps = append(apps, batchApp(
				"j", 5000+rng.Float64()*10000, 800+rng.Float64()*800,
				500, 0, 10+rng.Float64()*60))
		}
		small, err := cluster.Uniform(1, 1500, 8000)
		if err != nil {
			t.Fatalf("Uniform: %v", err)
		}
		big, err := cluster.Uniform(1, 3000, 8000)
		if err != nil {
			t.Fatalf("Uniform: %v", err)
		}
		pl := NewPlacement(len(apps))
		for i := range apps {
			pl.Add(i, 0)
		}
		evSmall := mustEval(t, &Problem{Cluster: small, Now: 0, Cycle: 5, Apps: apps, ExactHypothetical: true}, pl)
		evBig := mustEval(t, &Problem{Cluster: big, Now: 0, Cycle: 5, Apps: apps, ExactHypothetical: true}, pl)
		if !evSmall.Feasible || !evBig.Feasible {
			continue
		}
		if evBig.Vector.Less(evSmall.Vector) {
			t.Fatalf("trial %d: more capacity worsened vector: %v vs %v",
				trial, evBig.Vector, evSmall.Vector)
		}
	}
}
