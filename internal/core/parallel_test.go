package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

// randomProblem builds a randomized mixed web+batch placement problem:
// some jobs placed (possibly overloading nodes, exercising repair),
// some queued, a couple of web apps partially replicated, a sprinkle of
// pinning and anti-collocation.
func randomProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := 6 + rng.Intn(8)
	cl, err := cluster.Uniform(nodes, 15600, 16384)
	if err != nil {
		t.Fatal(err)
	}
	nJobs := 8 + rng.Intn(12)
	nWeb := 1 + rng.Intn(2)

	apps := make([]*Application, 0, nWeb+nJobs)
	current := NewPlacement(nWeb + nJobs)
	for i := 0; i < nWeb; i++ {
		// λ·c stays below one node's 15,600 MHz and each placed web app
		// starts on its own node, so the initial placement is always
		// feasible (repair evicts for memory, not for web CPU overload).
		web := &txn.App{
			Name:             fmt.Sprintf("web-%d", i),
			ArrivalRate:      30 + rng.Float64()*70,
			DemandPerRequest: 120,
			BaseLatency:      0.04,
			GoalResponseTime: 0.25,
			MaxPowerMHz:      20000 + rng.Float64()*20000,
			MemoryMB:         1500,
		}
		apps = append(apps, &Application{Name: web.Name, Kind: KindWeb, Web: web})
		if rng.Intn(2) == 0 {
			current.Add(i, cluster.NodeID(i))
		}
	}
	for j := 0; j < nJobs; j++ {
		work := 1e6 + rng.Float64()*4e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1560+rng.Float64()*2340, 3000+rng.Float64()*2000,
			0, 15000+rng.Float64()*50000)
		if j > 0 && rng.Intn(5) == 0 {
			spec.AntiCollocate = []string{fmt.Sprintf("job-%d", rng.Intn(j))}
		}
		idx := nWeb + j
		app := &Application{Name: spec.Name, Kind: KindBatch, Job: spec, AntiCollocate: spec.AntiCollocate}
		if rng.Intn(4) == 0 {
			app.PinnedNodes = []cluster.NodeID{
				cluster.NodeID(rng.Intn(nodes)), cluster.NodeID(rng.Intn(nodes)),
			}
		}
		if rng.Intn(3) != 0 {
			app.Done = rng.Float64() * work * 0.7
			app.Started = true
			current.Add(idx, cluster.NodeID(rng.Intn(nodes)))
		}
		apps = append(apps, app)
	}
	return &Problem{
		Cluster: cl,
		Now:     10000,
		Cycle:   600,
		Apps:    apps,
		Current: current,
		Costs:   cluster.DefaultCostModel(),
	}
}

// sameResult fails the test unless two optimizer outcomes are
// byte-identical: same placement, same evaluation count, same utility
// vector, same change count.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if d := want.Placement.Changes(got.Placement); d != 0 {
		t.Fatalf("%s: placement differs from sequential by %d instances", label, d)
	}
	if want.CandidatesEvaluated != got.CandidatesEvaluated {
		t.Fatalf("%s: candidates evaluated %d, sequential %d",
			label, got.CandidatesEvaluated, want.CandidatesEvaluated)
	}
	if want.Probes != got.Probes || want.FlowSolves != got.FlowSolves {
		t.Fatalf("%s: work counters (probes=%d flowSolves=%d), sequential (probes=%d flowSolves=%d)",
			label, got.Probes, got.FlowSolves, want.Probes, want.FlowSolves)
	}
	if want.Eval.Vector.Compare(got.Eval.Vector) != 0 {
		t.Fatalf("%s: utility vector %v, sequential %v",
			label, got.Eval.Vector, want.Eval.Vector)
	}
	if want.Changes != got.Changes || want.Repaired != got.Repaired {
		t.Fatalf("%s: (changes=%d repaired=%v), sequential (changes=%d repaired=%v)",
			label, got.Changes, got.Repaired, want.Changes, want.Repaired)
	}
}

// TestParallelMatchesSequential is the determinism contract of the
// worker pool: on randomized problems, Parallelism 1, 4 and 8 must
// produce bit-identical results. Run with -race it doubles as the
// pool's data-race test.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := randomProblem(t, seed)
		p.Parallelism = 1
		want, err := Optimize(p)
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		for _, par := range []int{4, 8} {
			p.Parallelism = par
			got, err := Optimize(p)
			if err != nil {
				t.Fatalf("seed %d parallelism %d: %v", seed, par, err)
			}
			sameResult(t, fmt.Sprintf("seed %d parallelism %d", seed, par), want, got)
		}
	}
}

// TestOptimizeLeavesNoGoroutine: the pool's close waits until every
// worker has signalled its exit, so Optimize leaves nothing running
// behind it. The runtime's own lazily started goroutines make an exact
// count fragile; forty leaked workers (five solves of eight) are not.
func TestOptimizeLeavesNoGoroutine(t *testing.T) {
	p := randomProblem(t, 3)
	p.Parallelism = 8
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Optimize(p); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after >= before+p.Parallelism {
		t.Fatalf("%d goroutines after five solves, %d before", after, before)
	}
}

// TestDeterministicTieBreak pins the tie-break order the parallel
// replay must preserve: with interchangeable jobs and identical nodes,
// every score tie resolves toward the lowest candidate index, so job j
// lands on node j. Any change to the adoption order — e.g. taking
// results in completion order instead of candidate order — moves these
// assignments and fails the test.
func TestDeterministicTieBreak(t *testing.T) {
	cl, err := cluster.Uniform(4, 3900, 4096)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, 3)
	for j := range apps {
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), 3900*1200, 3900, 3000, 0, 7200)
		apps[j] = &Application{Name: spec.Name, Kind: KindBatch, Job: spec}
	}
	for _, par := range []int{1, 4, 8} {
		p := &Problem{
			Cluster: cl, Now: 0, Cycle: 600, Apps: apps,
			Costs: cluster.FreeCostModel(), Parallelism: par,
		}
		res, err := Optimize(p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for j := range apps {
			nodes := res.Placement.NodesOf(j)
			if len(nodes) != 1 || nodes[0] != cluster.NodeID(j) {
				t.Fatalf("parallelism %d: job %d on %v, want node %d (lowest-index tie-break)",
					par, j, nodes, j)
			}
		}
	}
}

// TestVerifyIncrementalCrossCheck runs the optimizer in debug mode,
// where every incremental evaluation is compared against a full
// evaluation, memory scan included: a candidate the generators built
// that does not fit, or any divergence of the reused evaluation state,
// turns into an optimization error.
func TestVerifyIncrementalCrossCheck(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		p := randomProblem(t, seed)
		p.VerifyIncremental = true
		p.Parallelism = 4
		if _, err := Optimize(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestOptimizeInfeasibleSentinel verifies that an unsolvable problem —
// here a placed web application whose λ·c stability demand exceeds its
// hosting capacity — surfaces ErrInfeasible (still matching
// ErrBadProblem for older callers).
func TestOptimizeInfeasibleSentinel(t *testing.T) {
	cl, err := cluster.Uniform(1, 1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	web := &txn.App{
		Name: "web", ArrivalRate: 50, DemandPerRequest: 100,
		BaseLatency: 0.01, GoalResponseTime: 0.2,
		MaxPowerMHz: 8000, MemoryMB: 1000,
	}
	current := NewPlacement(1)
	current.Add(0, 0)
	p := &Problem{
		Cluster: cl, Now: 0, Cycle: 600,
		Apps:    []*Application{{Name: web.Name, Kind: KindWeb, Web: web}},
		Current: current,
		Costs:   cluster.FreeCostModel(),
	}
	_, err = Optimize(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Optimize = %v, want ErrInfeasible", err)
	}
	if !errors.Is(err, ErrBadProblem) {
		t.Fatalf("ErrInfeasible must wrap ErrBadProblem, got %v", err)
	}
}
