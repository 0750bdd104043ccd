package experiments

import (
	"fmt"
	"slices"
	"testing"

	"dynplace/internal/core"
)

// solveScaleProblem runs one optimization of the scale problem at the
// given size and worker count.
func solveScaleProblem(t *testing.T, nodes, parallelism int, verify bool) *core.Result {
	t.Helper()
	p, err := buildScaleProblem(nodes)
	if err != nil {
		t.Fatal(err)
	}
	p.VerifyIncremental = verify
	p.Parallelism = parallelism
	res, err := core.Optimize(p)
	if err != nil {
		t.Fatalf("%d nodes, Parallelism %d: %v", nodes, parallelism, err)
	}
	return res
}

// requireSameResult fails unless the parallel solve chose the sequential
// solve's placement with the same objective vector and the same work
// and change counts.
func requireSameResult(t *testing.T, seq, par *core.Result) {
	t.Helper()
	if n := seq.Placement.Changes(par.Placement); n != 0 {
		t.Errorf("parallel placement differs from sequential by %d instances", n)
	}
	if !slices.Equal(seq.Eval.Vector, par.Eval.Vector) {
		t.Errorf("utility vector differs:\nsequential %v\nparallel   %v", seq.Eval.Vector, par.Eval.Vector)
	}
	type counts struct{ Candidates, Probes, FlowSolves, Changes int }
	s := counts{seq.CandidatesEvaluated, seq.Probes, seq.FlowSolves, seq.Changes}
	p := counts{par.CandidatesEvaluated, par.Probes, par.FlowSolves, par.Changes}
	if s != p {
		t.Errorf("work counts differ: sequential %+v, parallel %+v", s, p)
	}
	if seq.Repaired != par.Repaired {
		t.Errorf("Repaired: sequential %v, parallel %v", seq.Repaired, par.Repaired)
	}
}

// TestScaleProblemVerifyIncremental runs the scale problem at 200 nodes
// with every incremental candidate evaluation cross-checked against a
// full Evaluate, sequentially and on the worker pool: every candidate
// must fit as generated (its incremental evaluation skips the memory
// scan), the reused evaluation state must agree with a from-scratch
// evaluation on every candidate, and both worker counts must reach the
// same result. The cross-check also covers the class
// skip: the candidates of every node skipped as interchangeable (564 of
// the 655 the solve would otherwise score) are generated and evaluated
// in full, and must score exactly as their twins'.
func TestScaleProblemVerifyIncremental(t *testing.T) {
	requireSameResult(t, solveScaleProblem(t, 200, 1, true), solveScaleProblem(t, 200, 4, true))
}

// TestScaleProblemParallelIdentity checks parallel ≡ sequential on the
// smallest size BenchmarkFlatSolve measures, where the problem has 52
// applications and the workers race over 176 candidates.
func TestScaleProblemParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 500-node problem twice")
	}
	requireSameResult(t, solveScaleProblem(t, 500, 1, false), solveScaleProblem(t, 500, 4, false))
}

// TestFlatSolveWorkCounts pins the solver's exact work on the scale
// problem at the two smallest sizes BenchmarkFlatSolve measures: its
// candidates, allocation probes and max-flow solves. The counts do not
// depend on the machine, so a change that makes the solver do more work
// fails here rather than only reading slower in a benchmark. At 500
// nodes every application ends at its cap and empty nodes offer nothing;
// at 1 000 one stays below it, and the class skip scores one empty node
// per class instead of all of them (4 247 candidates without it). Most
// multi-web probes are settled by the cut condition, so the flow solves
// are the probes inside its rounding band plus one share split per
// feasible candidate (2 999 and 4 855 when every probe ran the max-flow).
func TestFlatSolveWorkCounts(t *testing.T) {
	type counts struct{ Candidates, Probes, FlowSolves int }
	for _, tc := range []struct {
		nodes int
		want  counts
	}{
		{500, counts{Candidates: 176, Probes: 2833, FlowSolves: 357}},
		{1000, counts{Candidates: 383, Probes: 4482, FlowSolves: 464}},
	} {
		res := solveScaleProblem(t, tc.nodes, 1, false)
		if got := (counts{res.CandidatesEvaluated, res.Probes, res.FlowSolves}); got != tc.want {
			t.Errorf("%d-node flat solve: %+v, want %+v", tc.nodes, got, tc.want)
		}
	}
}

// BenchmarkFlatSolve times one sequential flat placement solve of the
// scale problem at 500, 1 000, 2 000 and 5 000 nodes and reports the solver's
// work beside the time: candidates, allocation probes and max-flow
// solves per solve. The counts are exact and machine-independent, so
// they say whether a timing moved because the work changed or because
// the same work got cheaper. Run it with:
//
//	go test -run '^$' -bench BenchmarkFlatSolve -benchtime=1x ./internal/experiments
func BenchmarkFlatSolve(b *testing.B) {
	for _, nodes := range []int{500, 1000, 2000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			p, err := buildScaleProblem(nodes)
			if err != nil {
				b.Fatal(err)
			}
			p.Parallelism = 1
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = core.Optimize(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CandidatesEvaluated), "candidates/op")
			b.ReportMetric(float64(res.Probes), "probes/op")
			b.ReportMetric(float64(res.FlowSolves), "flowsolves/op")
		})
	}
}
