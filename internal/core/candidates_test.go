package core

import (
	"fmt"
	"testing"

	"dynplace/internal/cluster"
)

// TestCandidateCountJumpsWithOneAppBelowCap pins the class skip and the
// candidates it removes. The count is not a function of cluster size but
// of whether any application is short of its utility cap. With every
// application at its cap (and none queued) addableApps is empty on every
// node, so only occupied nodes emit candidates — one pure removal per
// resident. One application below its cap is addable on every node that
// has the memory for it, so every such node — empty ones included —
// offers an additive candidate per removal depth, up to maxAddsPerNode
// each. Empty nodes with the same capacities and web rank offer the same
// candidates up to the node id, so Optimize scores only the first of
// each class unless a node is distinguished (twinOf). On
// BenchmarkFlatSolve's scale problem this is the difference between 500
// nodes, where all 52 applications end at cap (176 candidates), and
// 1 000, where one web application ends 0.008 short and seven jobs stay
// queued (383 candidates; 4 247 without the skip).
func TestCandidateCountJumpsWithOneAppBelowCap(t *testing.T) {
	const nodes = 8
	build := func(job1MaxSpeed float64) *Problem {
		cl, err := cluster.Uniform(nodes, 3000, 4096)
		if err != nil {
			t.Fatal(err)
		}
		apps := make([]*Application, 3)
		cur := NewPlacement(len(apps))
		for j := range apps {
			// One job per node on nodes 0–2; a second 3 000 MB job does
			// not fit beside it in 4 096 MB.
			apps[j] = batchApp(fmt.Sprintf("job-%d", j), 3e6, 2500, 3000, 0, 5000)
			apps[j].Started = true
			cur.Add(j, cluster.NodeID(j))
		}
		apps[1].Job.Stages[0].MaxSpeedMHz = job1MaxSpeed
		return &Problem{
			Cluster: cl, Now: 100, Cycle: 600, Apps: apps, Current: cur,
			Costs: cluster.DefaultCostModel(), Parallelism: 1,
		}
	}

	// Every job runs at its 2 500 MHz stage cap on a 3 000 MHz node: all
	// at cap, nothing addable. Candidates: the incumbent, plus one
	// removal on each of the three occupied nodes.
	atCap, err := Optimize(build(2500))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 3; atCap.CandidatesEvaluated != want || atCap.Changes != 0 {
		t.Fatalf("all at cap: %d candidates, %d changes; want %d and 0",
			atCap.CandidatesEvaluated, atCap.Changes, want)
	}

	// job-1 could use 9 000 MHz but no node has it: it sits below its
	// cap wherever it runs, so it is addable (as a migration) on every
	// other node. Nodes 0 and 2 emit their removal plus job-1 in the
	// freed memory; node 1 emits only the removal of job-1 itself. The
	// five empty nodes are interchangeable: node 3 emits one additive
	// candidate and nodes 4–7 are skipped as its twins. No candidate
	// helps, none is adopted; without the skip the count was 11.
	belowCap, err := Optimize(build(9000))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 1 + 2*2 + 1; belowCap.CandidatesEvaluated != want || belowCap.Changes != 0 {
		t.Fatalf("one app below cap: %d candidates, %d changes; want %d and 0",
			belowCap.CandidatesEvaluated, belowCap.Changes, want)
	}

	// An empty node that is job-1's LastNode is distinguished: it keeps
	// its own candidate, so the count goes up by exactly one.
	p := build(9000)
	p.LastNode = []cluster.NodeID{-1, 6, -1}
	withLast, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2 + 2*2 + 1; withLast.CandidatesEvaluated != want || withLast.Changes != 0 {
		t.Fatalf("job-1's LastNode empty: %d candidates, %d changes; want %d and 0",
			withLast.CandidatesEvaluated, withLast.Changes, want)
	}
}
