package core

import (
	"fmt"
	"testing"

	"dynplace/internal/cluster"
)

// TestCandidateCountJumpsWithOneAppBelowCap pins why BenchmarkFlatSolve's
// candidate count jumps from 176 at 500 nodes to 4 247 at 1 000 (ROADMAP):
// the count is not a function of cluster size but of whether any
// application is short of its utility cap. With every application at its
// cap (and none queued) addableApps is empty on every node, so only
// occupied nodes emit candidates — one pure removal per resident. One
// application below its cap is addable on every node that has the memory
// for it, so every such node — empty ones included — emits an additive
// candidate per removal depth, up to maxAddsPerNode each. At 500 nodes
// the scale problem's draw ends with all 52 applications at cap; at 1 000 one
// web application ends 0.008 short and seven jobs stay queued, and nearly
// every one of the 1 000 nodes emits its four additive prefixes.
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
	// other node. The five empty nodes emit one additive candidate each;
	// nodes 0 and 2 emit their removal plus job-1 in the freed memory;
	// node 1 emits only the removal of job-1 itself. No candidate helps,
	// none is adopted, and the count still went from 4 to 11.
	belowCap, err := Optimize(build(9000))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 5*1 + 2*2 + 1; belowCap.CandidatesEvaluated != want || belowCap.Changes != 0 {
		t.Fatalf("one app below cap: %d candidates, %d changes; want %d and 0",
			belowCap.CandidatesEvaluated, belowCap.Changes, want)
	}
}
