package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/txn"
)

// buildProblem generates a randomized mixed-workload problem mid-run:
// webApps applications replicated on a few nodes, three quarters of the
// jobs placed with random progress, the rest queued.
func buildProblem(t testing.TB, seed int64, nodes, webApps, jobs int) *core.Problem {
	t.Helper()
	cl, err := cluster.Uniform(nodes, 15600, 16384)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	apps := make([]*core.Application, 0, webApps+jobs)
	current := core.NewPlacement(webApps + jobs)
	for i := 0; i < webApps; i++ {
		web := &txn.App{
			Name:             fmt.Sprintf("web-%d", i),
			ArrivalRate:      150 + rng.Float64()*100,
			DemandPerRequest: 120,
			BaseLatency:      0.04,
			GoalResponseTime: 0.25,
			MaxPowerMHz:      40000,
			MemoryMB:         2000,
		}
		apps = append(apps, &core.Application{Name: web.Name, Kind: core.KindWeb, Web: web})
		for k := 0; k < 3; k++ {
			current.Add(i, cluster.NodeID((i*3+k)%nodes))
		}
	}
	placed := jobs * 3 / 4
	for j := 0; j < jobs; j++ {
		work := 1e6 + rng.Float64()*6e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1560+rng.Float64()*2340, 4320, 0, 20000+rng.Float64()*50000)
		idx := webApps + j
		app := &core.Application{Name: spec.Name, Kind: core.KindBatch, Job: spec}
		if j < placed {
			app.Done = rng.Float64() * work * 0.6
			app.Started = true
			current.Add(idx, cluster.NodeID((j/3+webApps*3)%nodes))
		}
		apps = append(apps, app)
	}
	return &core.Problem{
		Cluster:   cl,
		Now:       30000,
		Cycle:     600,
		Apps:      apps,
		Current:   current,
		Costs:     cluster.DefaultCostModel(),
		MaxPasses: 1,
	}
}

// advance mutates the problem as one control cycle would: placed jobs
// make progress, and the current placement becomes the solved one.
func advance(p *core.Problem, res *core.Result) {
	p.Current = res.Placement.Clone()
	p.Now += p.Cycle
	for i, a := range p.Apps {
		if a.Kind != core.KindBatch || !res.Placement.Placed(i) {
			continue
		}
		a.Started = true
		a.Done, _ = a.Job.Advance(a.Done, res.Eval.PerApp[i], p.Cycle)
	}
}

func TestSingleShardBitIdenticalToFlat(t *testing.T) {
	p := buildProblem(t, 11, 60, 2, 24)
	flatRes, err := core.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Count: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats for %d shards, want 1", len(stats))
	}
	if d := res.Placement.Changes(flatRes.Placement); d != 0 {
		t.Fatalf("single-shard placement differs from flat solver by %d instances", d)
	}
	if res.Eval.Vector.Compare(flatRes.Eval.Vector) != 0 {
		t.Fatalf("utility vector differs: shard %v flat %v", res.Eval.Vector, flatRes.Eval.Vector)
	}
	if res.CandidatesEvaluated != flatRes.CandidatesEvaluated {
		t.Fatalf("candidates %d, flat %d", res.CandidatesEvaluated, flatRes.CandidatesEvaluated)
	}
	if res.Probes != flatRes.Probes || res.FlowSolves != flatRes.FlowSolves || res.Probes == 0 {
		t.Fatalf("work counters (probes=%d flowSolves=%d), flat (probes=%d flowSolves=%d)",
			res.Probes, res.FlowSolves, flatRes.Probes, flatRes.FlowSolves)
	}
	for i := range p.Apps {
		if res.Eval.PerApp[i] != flatRes.Eval.PerApp[i] {
			t.Fatalf("app %d allocation %v, flat %v", i, res.Eval.PerApp[i], flatRes.Eval.PerApp[i])
		}
		if res.Eval.Utilities[i] != flatRes.Eval.Utilities[i] {
			t.Fatalf("app %d utility %v, flat %v", i, res.Eval.Utilities[i], flatRes.Eval.Utilities[i])
		}
	}
	if res.Eval.OmegaG != flatRes.Eval.OmegaG {
		t.Fatalf("omegaG %v, flat %v", res.Eval.OmegaG, flatRes.Eval.OmegaG)
	}
}

func TestDeterministicAcrossRunsAndParallelism(t *testing.T) {
	const cycles = 3
	type outcome struct {
		placements []*core.Placement
		assigns    []map[string]int
	}
	run := func(parallelism int) outcome {
		p := buildProblem(t, 23, 80, 2, 32)
		p.Parallelism = parallelism
		c, err := New(Config{Count: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		for cyc := 0; cyc < cycles; cyc++ {
			res, _, err := c.Solve(p)
			if err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
			out.placements = append(out.placements, res.Placement.Clone())
			out.assigns = append(out.assigns, c.Assignments())
			advance(p, res)
		}
		return out
	}
	base := run(1)
	for _, par := range []int{1, 3} {
		got := run(par)
		for cyc := 0; cyc < cycles; cyc++ {
			if d := base.placements[cyc].Changes(got.placements[cyc]); d != 0 {
				t.Fatalf("parallelism %d cycle %d: placement differs by %d instances", par, cyc, d)
			}
			for name, s := range base.assigns[cyc] {
				if got.assigns[cyc][name] != s {
					t.Fatalf("parallelism %d cycle %d: %q assigned to %d, want %d",
						par, cyc, name, got.assigns[cyc][name], s)
				}
			}
		}
	}
}

func TestNoAppLostOrDuplicatedAcrossCycles(t *testing.T) {
	p := buildProblem(t, 31, 80, 2, 40)
	c, err := New(Config{Count: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 4; cyc++ {
		res, stats, err := c.Solve(p)
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if err := Verify(p, res); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		// Every application is assigned to exactly one shard, and the
		// shard workload counts add up to the full application set.
		assigns := c.Assignments()
		if len(assigns) != len(p.Apps) {
			t.Fatalf("cycle %d: %d assignments for %d apps", cyc, len(assigns), len(p.Apps))
		}
		totalWeb, totalJobs := 0, 0
		for _, s := range stats {
			totalWeb += s.WebApps
			totalJobs += s.Jobs
		}
		if totalWeb != 2 || totalJobs != 40 {
			t.Fatalf("cycle %d: shard workloads sum to %d web + %d jobs, want 2 + 40",
				cyc, totalWeb, totalJobs)
		}
		for _, a := range p.Apps {
			s, ok := assigns[a.Name]
			if !ok {
				t.Fatalf("cycle %d: app %q lost from assignment", cyc, a.Name)
			}
			if s < 0 || s >= 4 {
				t.Fatalf("cycle %d: app %q assigned to bad shard %d", cyc, a.Name, s)
			}
		}
		advance(p, res)
	}
}

func TestRebalanceMovesQueuedWorkTowardHeadroom(t *testing.T) {
	// All current placements crowd into zone 0's nodes; the queued jobs
	// must flow to the other zones rather than pile onto the full one.
	const nodes, jobs = 40, 60
	p := buildProblem(t, 7, nodes, 0, jobs)
	// Re-pack every placed job onto the first 10 nodes (zone 0 of 4).
	repacked := core.NewPlacement(len(p.Apps))
	slot := 0
	for i := range p.Apps {
		if p.Current.Placed(i) {
			repacked.Add(i, cluster.NodeID(slot%10))
			slot++
		}
	}
	p.Current = repacked
	c, err := New(Config{Count: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, res); err != nil {
		t.Fatal(err)
	}
	queuedInZone0 := 0
	assigns := c.Assignments()
	for i, a := range p.Apps {
		if !repacked.Placed(i) && assigns[a.Name] == 0 {
			queuedInZone0++
		}
	}
	queued := 0
	for i := range p.Apps {
		if !repacked.Placed(i) {
			queued++
		}
	}
	if queuedInZone0 == queued {
		t.Fatalf("all %d queued jobs stayed in the overloaded zone", queued)
	}
	// The zones should report the utilization the next cycle's
	// rebalancing decisions are made from.
	maxU := 0.0
	for _, s := range stats {
		maxU = max(maxU, s.Utilization)
	}
	if maxU == 0 {
		t.Fatal("no zone reports utilization")
	}
}

func TestReliefMovesPlacedJobsOffOverloadedShard(t *testing.T) {
	// Two zones; every job starts placed in zone 0 with demand far over
	// zone 0's capacity. The relief pass must reassign some of them.
	cl, err := cluster.Uniform(8, 3900, 16384)
	if err != nil {
		t.Fatal(err)
	}
	var apps []*core.Application
	current := core.NewPlacement(24)
	for j := 0; j < 24; j++ {
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), 3.9e6, 3900, 4000, 0, 2000)
		apps = append(apps, &core.Application{
			Name: spec.Name, Kind: core.KindBatch, Job: spec, Started: true,
		})
		current.Add(j, cluster.NodeID(j%4)) // all in zone 0 (nodes 0..3)
	}
	p := &core.Problem{
		Cluster: cl, Now: 0, Cycle: 600, Apps: apps, Current: current,
		Costs: cluster.FreeCostModel(), MaxPasses: 1,
	}
	c, err := New(Config{Count: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, res); err != nil {
		t.Fatal(err)
	}
	if stats[1].MovesIn == 0 {
		t.Fatalf("no jobs moved to the idle zone: stats %+v", stats)
	}
	if stats[1].Jobs == 0 {
		t.Fatal("idle zone received no work")
	}
	if got := stats[0].Jobs + stats[1].Jobs; got != 24 {
		t.Fatalf("jobs across zones sum to %d, want 24", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Count: 0}); err == nil {
		t.Fatal("Count 0 accepted")
	}
	if _, err := New(Config{Count: -2}); err == nil {
		t.Fatal("negative Count accepted")
	}
	c, err := New(Config{Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	// More shards than nodes: the layout clamps to one node per zone.
	p := buildProblem(t, 2, 4, 0, 6)
	res, stats, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("%d zones for a 4-node cluster with Count 8, want 4", len(stats))
	}
	if err := Verify(p, res); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutContiguous(t *testing.T) {
	for _, tc := range []struct{ nodes, count int }{
		{10, 3}, {10000, 16}, {7, 7}, {5, 1}, {3, 8},
	} {
		lay := newLayout(tc.nodes, tc.count)
		want := tc.count
		if want > tc.nodes {
			want = tc.nodes
		}
		if lay.count != want {
			t.Fatalf("layout(%d,%d).count = %d, want %d", tc.nodes, tc.count, lay.count, want)
		}
		for i := 0; i < tc.nodes; i++ {
			s := lay.zoneOf(cluster.NodeID(i))
			if i < lay.starts[s] || i >= lay.starts[s+1] {
				t.Fatalf("layout(%d,%d): node %d mapped to zone %d [%d,%d)",
					tc.nodes, tc.count, i, s, lay.starts[s], lay.starts[s+1])
			}
		}
		for s := 0; s < lay.count; s++ {
			if lay.starts[s+1] <= lay.starts[s] {
				t.Fatalf("layout(%d,%d): empty zone %d", tc.nodes, tc.count, s)
			}
		}
	}
}

// TestPinnedNodesHonoredAcrossZones pins the review finding that pin
// constraints must survive the zone decomposition: an app pinned to
// nodes in one zone is assigned and placed there, and an app whose pins
// are all off-cluster stays unplaced exactly as under the flat solver.
func TestPinnedNodesHonoredAcrossZones(t *testing.T) {
	cl, err := cluster.Uniform(8, 3900, 16384)
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func(name string, pins ...cluster.NodeID) *core.Application {
		spec := batch.SingleStage(name, 1e6, 3900, 4000, 0, 20000)
		return &core.Application{
			Name: spec.Name, Kind: core.KindBatch, Job: spec, PinnedNodes: pins,
		}
	}
	apps := []*core.Application{
		mkJob("pinned-zone1", 5, 6),    // nodes 5,6 live in zone 1 of 2
		mkJob("pinned-offcluster", 99), // no such node
		mkJob("free"),
	}
	p := &core.Problem{
		Cluster: cl, Now: 0, Cycle: 600, Apps: apps,
		Costs: cluster.FreeCostModel(), MaxPasses: 1,
	}
	c, err := New(Config{Count: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, res); err != nil {
		t.Fatal(err)
	}
	nodes := res.Placement.NodesOf(0)
	if len(nodes) != 1 || (nodes[0] != 5 && nodes[0] != 6) {
		t.Fatalf("pinned-zone1 placed on %v, want node 5 or 6", nodes)
	}
	if res.Placement.Placed(1) {
		t.Fatalf("pinned-offcluster placed on %v; flat solver leaves it unplaced",
			res.Placement.NodesOf(1))
	}
	if !res.Placement.Placed(2) {
		t.Fatal("free job not placed")
	}
}

// shrink rebuilds the problem as the planner would after node `removed`
// vanished: one fewer node, densely renumbered, with placement entries
// on the removed node dropped and higher IDs shifted down.
func shrink(t *testing.T, p *core.Problem, removed cluster.NodeID) *core.Problem {
	t.Helper()
	old := p.Cluster.Nodes()
	defs := make([]cluster.Node, 0, len(old)-1)
	for _, n := range old {
		if n.ID == removed {
			continue
		}
		defs = append(defs, cluster.Node{CPUMHz: n.CPUMHz, MemMB: n.MemMB})
	}
	cl, err := cluster.New(defs...)
	if err != nil {
		t.Fatal(err)
	}
	remap := func(nd cluster.NodeID) (cluster.NodeID, bool) {
		switch {
		case nd == removed:
			return -1, false
		case nd > removed:
			return nd - 1, true
		default:
			return nd, true
		}
	}
	current := core.NewPlacement(len(p.Apps))
	if p.Current != nil {
		for i := range p.Apps {
			for _, nd := range p.Current.NodesOf(i) {
				if m, ok := remap(nd); ok {
					current.Add(i, m)
				}
			}
		}
	}
	out := *p
	out.Cluster = cl
	out.Current = current
	return &out
}

// TestRepartitionAfterNodeChurnDeterministic: when the node set changes
// between cycles, the coordinator repartitions (and drops the stale
// per-zone pressure), and two coordinators fed the same history produce
// bit-identical placements and zone assignments throughout.
func TestRepartitionAfterNodeChurnDeterministic(t *testing.T) {
	mk := func() *Coordinator {
		c, err := New(Config{Count: 3, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	p := buildProblem(t, 31, 30, 2, 18)
	q := buildProblem(t, 31, 30, 2, 18)

	step := func(pa, pb *core.Problem) (*core.Result, *core.Result) {
		ra, _, err := a.Solve(pa)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.Solve(pb)
		if err != nil {
			t.Fatal(err)
		}
		if d := ra.Placement.Changes(rb.Placement); d != 0 {
			t.Fatalf("coordinators diverged by %d instances", d)
		}
		asgA, asgB := a.Assignments(), b.Assignments()
		if len(asgA) != len(asgB) {
			t.Fatalf("assignment sizes differ: %d vs %d", len(asgA), len(asgB))
		}
		for name, zone := range asgA {
			if asgB[name] != zone {
				t.Fatalf("app %s assigned to zone %d vs %d", name, zone, asgB[name])
			}
		}
		return ra, rb
	}

	ra, rb := step(p, q)
	advance(p, ra)
	advance(q, rb)
	// A node fails: the layout shrinks from 30 to 29 nodes and the zone
	// boundaries shift.
	p, q = shrink(t, p, 7), shrink(t, q, 7)
	ra, rb = step(p, q)
	if got := a.Stats(); len(got) != 3 {
		t.Fatalf("stats for %d zones, want 3", len(got))
	}
	advance(p, ra)
	advance(q, rb)
	step(p, q) // steady cycle on the mutated inventory
}

// TestSingleShardIdenticalAfterChurn extends the single-zone ≡ flat
// guarantee across a node-set mutation: a one-zone coordinator carrying
// state from before the failure must still reproduce the flat solver bit
// for bit on the shrunk cluster.
func TestSingleShardIdenticalAfterChurn(t *testing.T) {
	p := buildProblem(t, 41, 24, 2, 12)
	c, err := New(Config{Count: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	advance(p, res)
	p = shrink(t, p, 5)

	flatRes, err := core.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Nodes != 23 {
		t.Fatalf("stats = %+v, want one 23-node zone", stats)
	}
	if d := res.Placement.Changes(flatRes.Placement); d != 0 {
		t.Fatalf("single-shard placement differs from flat solver by %d instances after churn", d)
	}
	if res.Eval.Vector.Compare(flatRes.Eval.Vector) != 0 {
		t.Fatalf("utility vector differs after churn: shard %v flat %v", res.Eval.Vector, flatRes.Eval.Vector)
	}
	if res.CandidatesEvaluated != flatRes.CandidatesEvaluated {
		t.Fatalf("candidates %d, flat %d", res.CandidatesEvaluated, flatRes.CandidatesEvaluated)
	}
	if res.Probes != flatRes.Probes || res.FlowSolves != flatRes.FlowSolves || res.Probes == 0 {
		t.Fatalf("work counters (probes=%d flowSolves=%d), flat (probes=%d flowSolves=%d)",
			res.Probes, res.FlowSolves, flatRes.Probes, flatRes.FlowSolves)
	}
}

// TestClusterFingerprintPinned pins the fingerprint of a fixed 3-node
// cluster: FNV-64a over the node count, then each node's name, a zero
// byte and its CPU and memory bits, all little-endian. Any change to
// that byte stream changes the value.
func TestClusterFingerprintPinned(t *testing.T) {
	cl, err := cluster.New(
		cluster.Node{Name: "a", CPUMHz: 3000, MemMB: 4096},
		cluster.Node{Name: "zone-b/n1", CPUMHz: 2400.5, MemMB: 8192},
		cluster.Node{CPUMHz: 1e6, MemMB: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x37ec5af7d9439665
	if got := clusterFingerprint(cl); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, want)
	}
}
