package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

// twinProblem builds a random problem on 6–12 uniform nodes that leaves
// most nodes empty while some application stays below its cap, so the
// optimizer's class skip (twinOf) has interchangeable nodes to skip. Web
// instances sit on random nodes, so empty nodes of different web ranks
// alternate; suspended jobs name a random LastNode, some jobs are pinned,
// and on some seeds Current holds a job that no longer fits any node, so
// repair leaves its node empty but still in Current.
func twinProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := 6 + rng.Intn(7)
	cl, err := cluster.Uniform(nodes, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	randomNode := func() cluster.NodeID { return cluster.NodeID(rng.Intn(nodes)) }
	var apps []*Application
	var on []cluster.NodeID // Current's node per app, -1 when unplaced
	last := []cluster.NodeID{}
	for i := 0; i < 1+rng.Intn(2); i++ {
		name := fmt.Sprintf("web-%d", i)
		// λ·c of at most 1 600 MHz fits beside anything on one node; the
		// power cap is out of a node's reach, so the app stays addable.
		apps = append(apps, &Application{Name: name, Kind: KindWeb, Web: &txn.App{
			Name: name, ArrivalRate: 10 + rng.Float64()*22, DemandPerRequest: 50,
			BaseLatency: 0.02, GoalResponseTime: 0.1,
			MaxPowerMHz: 6000 + rng.Float64()*6000, MemoryMB: 1000,
		}})
		on, last = append(on, -1), append(last, -1)
		if rng.Intn(3) != 0 {
			on[i] = randomNode()
		}
	}
	for j := 0; j < 3+rng.Intn(6); j++ {
		work := 2e6 + rng.Float64()*2e7
		// Some stage caps exceed a node's CPU: such a job is below its
		// cap wherever it runs, so it is addable (as a migration) on
		// every empty node.
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1500+rng.Float64()*2500, 1000+rng.Float64()*1500, 0, 8000+rng.Float64()*40000)
		a := &Application{Name: spec.Name, Kind: KindBatch, Job: spec}
		if rng.Intn(5) == 0 {
			a.PinnedNodes = []cluster.NodeID{randomNode(), randomNode()}
		}
		nd, lastNode := cluster.NodeID(-1), cluster.NodeID(-1)
		switch rng.Intn(3) {
		case 0: // running
			a.Started, a.Done = true, rng.Float64()*work*0.5
			nd = randomNode()
		case 1: // suspended
			a.Started, a.Done = true, rng.Float64()*work*0.5
			lastNode = randomNode()
		}
		apps, on, last = append(apps, a), append(on, nd), append(last, lastNode)
	}
	if rng.Intn(2) == 0 {
		spec := batch.SingleStage("stale", 1e7, 2000, 5000, 0, 20000)
		apps = append(apps, &Application{Name: spec.Name, Kind: KindBatch, Job: spec, Started: true})
		on, last = append(on, randomNode()), append(last, -1)
	}
	cur := NewPlacement(len(apps))
	for app, nd := range on {
		if nd >= 0 {
			cur.Add(app, nd)
		}
	}
	return &Problem{
		Cluster: cl, Now: 1000, Cycle: 600, Apps: apps, Current: cur, LastNode: last,
		Costs: cluster.DefaultCostModel(),
	}
}

// TestClassSkipIsExact is the class skip's property test. On random
// problems with many empty nodes, VerifyIncremental generates and fully
// evaluates the candidates of every node Optimize skipped and fails the
// solve unless they score bit for bit as those of the node it was
// skipped for; the sequential and parallel solves must then agree. The
// generator must also produce the nodes the exclusions exist for: a
// LastNode, pinned or stale-Current node that, but for the exclusion,
// would share a class with an earlier empty node.
func TestClassSkipIsExact(t *testing.T) {
	var skips, excluded int
	for seed := int64(0); seed < 40; seed++ {
		p := twinProblem(t, seed)
		p.VerifyIncremental = true
		p.Parallelism = 1
		want, err := Optimize(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p.Parallelism = 4
		got, err := Optimize(p)
		if err != nil {
			t.Fatalf("seed %d parallelism 4: %v", seed, err)
		}
		sameResult(t, fmt.Sprintf("seed %d parallelism 4", seed), want, got)

		s, e := initialTwins(t, p)
		skips += s
		excluded += e
	}
	if skips == 0 || excluded == 0 {
		t.Fatalf("generator never exercised the skip: %d nodes skipped and %d excluded on the initial incumbents", skips, excluded)
	}
}

// initialTwins visits every node of p's repaired initial incumbent once
// and returns how many the class skip would skip, and how many
// distinguished empty nodes it visits only because they are
// distinguished: without the exclusion they would have a twin.
func initialTwins(t *testing.T, p *Problem) (skipped, excluded int) {
	t.Helper()
	tbl := new(table)
	tbl.build(p)
	base := p.Current.Clone()
	if _, err := repair(tbl, base); err != nil {
		t.Fatal(err)
	}
	ctx := &evalContext{t: tbl}
	ctx.rebase(base, nil)
	for n := range tbl.nodeCaps {
		nd := cluster.NodeID(n)
		if ctx.twinOf(nd) >= 0 {
			skipped++
			continue
		}
		k := nodeClass{cpu: tbl.nodeCaps[n], mem: tbl.nodeMem[n], webRank: ctx.webRank[n]}
		if rep, ok := ctx.classes[k]; ok && rep != nd && tbl.distinguished[n] && len(ctx.residents.on(nd)) == 0 {
			excluded++
		}
	}
	return skipped, excluded
}

// TestTwinOfExcludesDistinguishedNodes pins twinOf's classes on one
// base: occupied nodes and the nodes of Current, LastNode and
// PinnedNodes are never twins; an empty node's twin is the first empty
// undistinguished node of the same web rank; a node is not its own twin;
// and rebase forgets every class.
func TestTwinOfExcludesDistinguishedNodes(t *testing.T) {
	cl, err := cluster.Uniform(11, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	apps := []*Application{
		batchApp("running", 1e7, 2500, 1000, 0, 20000),
		batchApp("suspended", 1e7, 2500, 1000, 0, 20000),
		batchApp("pinned", 1e7, 2500, 1000, 0, 20000),
		webApp("web"),
	}
	apps[1].Started = true
	apps[2].PinnedNodes = []cluster.NodeID{7}
	cur := NewPlacement(len(apps))
	cur.Add(0, 2)
	p := &Problem{
		Cluster: cl, Now: 0, Cycle: 600, Apps: apps, Current: cur,
		LastNode: []cluster.NodeID{-1, 6, -1, -1}, Costs: cluster.DefaultCostModel(),
	}
	tbl := new(table)
	tbl.build(p)
	ctx := &evalContext{t: tbl}
	// The base has moved the running job off node 2, which stays in
	// Current, and hosts the web app on node 5.
	base := NewPlacement(len(apps))
	base.Add(0, 4)
	base.Add(3, 5)
	ctx.rebase(base, nil)
	//            node: 0   1  2   3  4   5   6   7   8  9  10
	want := []cluster.NodeID{-1, 0, -1, 0, -1, -1, -1, -1, -1, 8, 8}
	for n, w := range want {
		if got := ctx.twinOf(cluster.NodeID(n)); got != w {
			t.Errorf("twinOf(%d) = %d, want %d", n, got, w)
		}
	}
	if got := ctx.twinOf(8); got != -1 {
		t.Errorf("twinOf(8) revisited = %d, want -1 (a node is not its own twin)", got)
	}
	ctx.rebase(base, nil)
	if got := ctx.twinOf(1); got != -1 {
		t.Errorf("twinOf(1) after rebase = %d, want -1", got)
	}
}
