package core

import (
	"fmt"
	"math"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
	"dynplace/internal/trace"
)

// allocProblem is a contended single-web problem: 24 jobs three to a node
// on eight nodes that cannot run them all flat out, one web application
// on three of the nodes, six jobs queued.
func allocProblem(t *testing.T, webs int) (*Problem, *Placement) {
	t.Helper()
	cl, err := cluster.Uniform(8, 9000, 16384)
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 30
	apps := make([]*Application, 0, webs+nJobs)
	pl := NewPlacement(webs + nJobs)
	for w := 0; w < webs; w++ {
		apps = append(apps, webApp(fmt.Sprintf("web-%d", w)))
		for k := 0; k < 3; k++ {
			pl.Add(w, cluster.NodeID(w+k)) // consecutive web apps share two hosts
		}
	}
	for j := 0; j < nJobs; j++ {
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), 4e6+float64(j)*3e5, 3000+float64(j%5)*400, 3500, 0, 9000+float64(j)*700)
		app := &Application{Name: spec.Name, Kind: KindBatch, Job: spec}
		if j < 24 {
			app.Done, app.Started = float64(j)*5e4, true
			pl.Add(webs+j, cluster.NodeID(j%8))
		}
		apps = append(apps, app)
	}
	return &Problem{Cluster: cl, Now: 1000, Cycle: 600, Apps: apps, Current: pl, Costs: cluster.DefaultCostModel()}, pl
}

// deepCopyAllocs measures what it costs to copy an Evaluation out: the
// floor for anything that returns one.
func deepCopyAllocs(ev *Evaluation) float64 {
	var sink *Evaluation
	allocs := testing.AllocsPerRun(20, func() {
		cp := *ev
		cp.PerApp = append([]float64(nil), ev.PerApp...)
		cp.Utilities = append([]float64(nil), ev.Utilities...)
		cp.Vector = append(cp.Vector[:0:0], ev.Vector...)
		cp.brackets = append(cp.brackets[:0:0], ev.brackets...)
		if ev.WebShares != nil {
			cp.WebShares = make(map[int][]float64, len(ev.WebShares))
			for app, s := range ev.WebShares {
				cp.WebShares[app] = append([]float64(nil), s...)
			}
		}
		sink = &cp
	})
	_ = sink
	return allocs
}

// TestWarmProbeAllocatesNothing: a bisection probe on a warm arena is
// arithmetic on the constants table and the arena's scratch. With two or
// more web applications sharing hosts that includes the max-flow: the
// routing network was built by the floor probe and is only
// re-capacitated.
func TestWarmProbeAllocatesNothing(t *testing.T) {
	for webs := 0; webs <= 3; webs++ {
		p, pl := allocProblem(t, webs)
		var tbl table
		tbl.build(p)
		var al allocator
		al.aim(&tbl, pl)
		if !al.feasible(-1, -1) {
			t.Fatalf("%d webs: floor probe infeasible", webs)
		}
		level := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			al.feasible(level, -1)
			al.feasible(level, webs+3)
			level += 1e-3
		})
		if allocs != 0 {
			t.Fatalf("%d webs: a warm probe allocates %v objects, want 0", webs, allocs)
		}
	}
}

// TestMultiWebProbePaths: once two or more web applications share hosts,
// a probe is settled by the cut condition when it lies clear of the
// rounding band and by the max-flow inside it. Warm, neither allocates:
// the cut test's tables and the routing network are kept by the
// allocator. A cut-decided probe runs no flow solve and a band probe
// exactly one.
func TestMultiWebProbePaths(t *testing.T) {
	p, pl := allocProblem(t, 3)
	var tbl table
	tbl.build(p)
	var al allocator
	al.aim(&tbl, pl)
	// probe runs one probe at level u and reports its answer and the
	// flow solves it ran.
	probe := func(u float64) (bool, int) {
		before := al.flowSolves
		ok := al.feasible(u, -1)
		return ok, al.flowSolves - before
	}
	clearlyFeasible := func(u float64) bool {
		ok, solves := probe(u)
		return ok && solves == 0
	}
	// Bisect for the lowest level the cut test no longer settles as
	// feasible: its excess has just crossed into the band.
	lo, hi := rpf.MinUtility, 1.0
	if !clearlyFeasible(lo) || clearlyFeasible(hi) {
		t.Fatal("want the floor settled feasible by the cut test and level 1 not")
	}
	for math.Nextafter(lo, hi) < hi {
		if mid := lo + (hi-lo)/2; clearlyFeasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if _, solves := probe(hi); solves != 1 {
		t.Fatalf("the probe at the band's edge ran %d flow solves, want 1", solves)
	}
	for _, tc := range []struct {
		name  string
		level float64
		want  int
	}{
		{"cut-decided", lo, 0},
		{"band", hi, 1},
	} {
		before := al.flowSolves
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() { al.feasible(tc.level, -1) })
		// AllocsPerRun makes one warm-up run besides the measured ones.
		if solved := al.flowSolves - before; solved != tc.want*(runs+1) {
			t.Errorf("%s probe: %d flow solves in %d probes, want %d per probe", tc.name, solved, runs+1, tc.want)
		}
		if allocs != 0 {
			t.Errorf("%s probe (3 web apps on 5 hosts): %v objects, want 0", tc.name, allocs)
		}
	}
}

// TestWarmEvaluateAllocatesOnlyItsResult: a warm incremental evaluation
// allocates no more than copying out the Evaluation it returns, web
// shares included. Making the candidate's edits on the arena's copy of
// the base and taking them back allocates nothing once warm.
func TestWarmEvaluateAllocatesOnlyItsResult(t *testing.T) {
	for webs := 0; webs <= 3; webs++ {
		p, pl := allocProblem(t, webs)
		tbl := new(table)
		tbl.build(p)
		ctx := &evalContext{t: tbl}
		ctx.rebase(pl, nil)
		// A queued job takes the slot a placed one frees.
		cand := []edit{{app: webs + 2, node: 2}, {app: webs + 25, node: 2, add: true}}
		ar := new(arena)
		ev, err := ctx.evaluate(ar, cand)
		if err != nil || !ev.Feasible {
			t.Fatalf("%d webs: evaluate: feasible=%v err=%v", webs, ev != nil && ev.Feasible, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ctx.evaluate(ar, cand); err != nil {
				t.Fatal(err)
			}
		})
		if floor := deepCopyAllocs(ev); allocs > floor {
			t.Fatalf("%d webs: a warm evaluate allocates %v objects; deep-copying its result takes %v", webs, allocs, floor)
		}
	}
}

// TestReaimedAllocatorMatchesFresh: an allocator re-aimed from placement
// to placement, and one whose last routing run failed part-way through
// re-capacitating, solves exactly as a fresh one. This guards the
// routing network the allocator keeps between aims: no edge or capacity
// of an earlier placement may leak into a later one.
func TestReaimedAllocatorMatchesFresh(t *testing.T) {
	p, a := allocProblem(t, 3) // web apps on nodes 0-2, 1-3 and 2-4
	b := a.Clone()
	b.Add(0, 7) // web-0 gains a host no web app has in a
	var tbl table
	tbl.build(p)

	type outcome struct {
		perApp             []float64
		shares             map[int][]float64
		probes, flowSolves int
	}
	solve := func(al *allocator, pl *Placement) outcome {
		t.Helper()
		al.aim(&tbl, pl)
		perApp, shares, ok, err := al.solve(false)
		if err != nil || !ok {
			t.Fatalf("solve: ok=%v err=%v", ok, err)
		}
		return outcome{perApp, shares, al.probes, al.flowSolves}
	}
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	check := func(step string, got, want outcome) {
		t.Helper()
		if got.probes != want.probes || got.flowSolves != want.flowSolves {
			t.Fatalf("%s: %d probes / %d flow solves, fresh allocator %d / %d",
				step, got.probes, got.flowSolves, want.probes, want.flowSolves)
		}
		if !sameBits(got.perApp, want.perApp) {
			t.Fatalf("%s: PerApp %v, fresh allocator %v", step, got.perApp, want.perApp)
		}
		if len(got.shares) != len(want.shares) {
			t.Fatalf("%s: shares for %d web apps, fresh allocator %d", step, len(got.shares), len(want.shares))
		}
		for app, w := range want.shares {
			if !sameBits(got.shares[app], w) {
				t.Fatalf("%s: web app %d shares %v, fresh allocator %v", step, app, got.shares[app], w)
			}
		}
	}
	fresh := func(pl *Placement) outcome { return solve(new(allocator), pl) }

	var al allocator
	check("A", solve(&al, a), fresh(a))
	check("B after A", solve(&al, b), fresh(b))
	want := fresh(a)
	check("A after B", solve(&al, a), want)

	bad := append([]float64(nil), want.perApp...)
	bad[1] = math.NaN()
	if _, err := al.distributeWeb(bad); err == nil {
		t.Fatal("distributeWeb took a NaN allocation")
	}
	shares, err := al.distributeWeb(want.perApp)
	if err != nil {
		t.Fatal(err)
	}
	check("shares after a failed run", outcome{want.perApp, shares, want.probes, want.flowSolves}, want)
	check("A after a failed run", solve(&al, a), want)
}

// TestOptimizeAllocationBudget gates the whole solve on the
// BenchmarkOptimizerCycle shape (batch-only, 25 nodes, 75 placed + 25
// queued jobs): 49 567 objects before the evaluator stopped allocating
// per application, a fifth of that as the budget.
func TestOptimizeAllocationBudget(t *testing.T) {
	cl, err := cluster.Uniform(25, 15600, 16384)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, 100)
	current := NewPlacement(len(apps))
	for i := range apps {
		spec := trace.Experiment1Job(fmt.Sprintf("j%d", i), 0)
		apps[i] = &Application{
			Name: spec.Name, Kind: KindBatch, Job: spec,
			Done: float64(i%30) * 1e6, Started: i < 75,
		}
		if i < 75 {
			current.Add(i, cluster.NodeID(i/3))
		}
	}
	p := &Problem{
		Cluster: cl, Now: 30000, Cycle: 600, Apps: apps, Current: current,
		Costs: cluster.DefaultCostModel(), Parallelism: 1,
	}
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		if res, err = Optimize(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Optimize: %v objects for %d candidates, %d probes", allocs, res.CandidatesEvaluated, res.Probes)
	if allocs > 10000 {
		t.Fatalf("Optimize allocates %v objects on the optimizer-cycle shape, budget 10000", allocs)
	}
}

// TestDistributeWebRejectsBadAllocations: an allocation the flow network
// cannot take as a capacity must come back as an error from
// distributeWeb (and so from solve, evaluate and Evaluate), never as a
// feasible evaluation with a web share silently missing or zero.
func TestDistributeWebRejectsBadAllocations(t *testing.T) {
	p, pl := allocProblem(t, 2)
	var tbl table
	tbl.build(p)
	var al allocator
	al.aim(&tbl, pl)
	good, _, ok, err := al.solve(false)
	if err != nil || !ok {
		t.Fatalf("baseline solve: ok=%v err=%v", ok, err)
	}
	if shares, err := al.distributeWeb(good); err != nil || len(shares) != 2 {
		t.Fatalf("baseline distributeWeb: %d shares, err %v", len(shares), err)
	}
	const web, jobOnWebHost = 1, 2 + 1 // job 1 runs on node 1, which hosts both web apps
	for _, tc := range []struct {
		name string
		app  int
		bad  float64
	}{
		{"NaN web allocation", web, math.NaN()},
		{"negative web allocation", web, -1},
		{"infinite web allocation", web, math.Inf(1)},
		{"NaN job allocation poisons the host's residual", jobOnWebHost, math.NaN()},
		{"-Inf job allocation makes the host's residual infinite", jobOnWebHost, math.Inf(-1)},
	} {
		perApp := append([]float64(nil), good...)
		perApp[tc.app] = tc.bad
		shares, err := al.distributeWeb(perApp)
		if err == nil {
			t.Errorf("%s: distributeWeb returned shares %v and no error", tc.name, shares)
		}
	}
}
