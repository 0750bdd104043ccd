package experiments

import (
	"fmt"
	"slices"
	"testing"

	"dynplace/internal/core"
)

// scaleShape is one way to pose and solve the scale problem.
type scaleShape struct {
	name     string
	passes   int  // Problem.MaxPasses: 1, or 0 for the default the daemon runs
	distinct bool // node CPUs drawn within ±20 % of 15 600 MHz
}

// The three shapes TestFlatSolveWorkCounts pins and BenchmarkFlatSolve
// reports: one pass on identical nodes, the default passes the daemon
// runs, and one pass on nodes of distinct CPU, where no two empty nodes
// are interchangeable.
var (
	onePass       = scaleShape{"uniform", 1, false}
	defaultPasses = scaleShape{"uniform-default-passes", 0, false}
	distinctCPUs  = scaleShape{"distinct", 1, true}
)

// problem builds the scale problem at the given size in this shape.
func (s scaleShape) problem(tb testing.TB, nodes int) *core.Problem {
	tb.Helper()
	p, err := buildScaleProblem(nodes, s.distinct)
	if err != nil {
		tb.Fatal(err)
	}
	p.MaxPasses = s.passes
	return p
}

// solveScaleProblem runs one optimization of the scale problem at the
// given size and worker count, in one pass on identical nodes.
func solveScaleProblem(t *testing.T, nodes, parallelism int, verify bool) *core.Result {
	t.Helper()
	return solveShape(t, onePass, nodes, parallelism, verify)
}

// solveShape runs one optimization of the scale problem in the given
// shape, size and worker count.
func solveShape(t *testing.T, s scaleShape, nodes, parallelism int, verify bool) *core.Result {
	t.Helper()
	p := s.problem(t, nodes)
	p.VerifyIncremental = verify
	p.Parallelism = parallelism
	res, err := core.Optimize(p)
	if err != nil {
		t.Fatalf("%s, %d nodes, Parallelism %d: %v", s.name, nodes, parallelism, err)
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
// problem: its candidates, allocation probes and max-flow solves, in
// one pass at the two smallest sizes BenchmarkFlatSolve measures, and at
// 1 000 nodes also in the default passes the daemon runs and in one pass
// on nodes of distinct CPU. The counts do not depend on the machine, so
// a change that makes the solver do more work fails here rather than
// only reading slower in a benchmark. At 500 nodes every application
// ends at its cap and empty nodes offer nothing; at 1 000 one stays
// below it, and the class skip scores one empty node per class instead
// of all of them (4 247 candidates without it). With distinct CPUs no
// two empty nodes share a class, so the skip finds no twins. Most
// multi-web probes are settled by the cut condition, so the flow solves
// are the probes inside its rounding band plus one share split per
// feasible candidate (2 999 and 4 855 when every probe ran the max-flow).
func TestFlatSolveWorkCounts(t *testing.T) {
	type counts struct{ Candidates, Probes, FlowSolves int }
	for _, tc := range []struct {
		shape scaleShape
		nodes int
		want  counts
	}{
		{onePass, 500, counts{Candidates: 176, Probes: 2833, FlowSolves: 357}},
		{onePass, 1000, counts{Candidates: 383, Probes: 4482, FlowSolves: 464}},
		{defaultPasses, 1000, counts{Candidates: 800, Probes: 12306, FlowSolves: 881}},
		{distinctCPUs, 1000, counts{Candidates: 4247, Probes: 48030, FlowSolves: 4555}},
	} {
		res := solveShape(t, tc.shape, tc.nodes, 1, false)
		if got := (counts{res.CandidatesEvaluated, res.Probes, res.FlowSolves}); got != tc.want {
			t.Errorf("%s %d-node flat solve: %+v, want %+v", tc.shape.name, tc.nodes, got, tc.want)
		}
	}
}

// BenchmarkFlatSolve times one sequential flat placement solve of the
// scale problem at 500, 1 000, 2 000 and 5 000 nodes in each of the
// three shapes TestFlatSolveWorkCounts pins — one pass on identical
// nodes, the default passes the daemon runs, one pass on nodes of
// distinct CPU — and reports the solver's work beside the time:
// candidates, allocation probes and max-flow solves per solve. The
// counts are exact and machine-independent, so they say whether a timing
// moved because the work changed or because the same work got cheaper.
// Run it with:
//
//	go test -run '^$' -bench BenchmarkFlatSolve -benchmem -benchtime=1x ./internal/experiments
func BenchmarkFlatSolve(b *testing.B) {
	for _, shape := range []scaleShape{onePass, defaultPasses, distinctCPUs} {
		for _, nodes := range []int{500, 1000, 2000, 5000} {
			b.Run(fmt.Sprintf("%s/nodes=%d", shape.name, nodes), func(b *testing.B) {
				p := shape.problem(b, nodes)
				p.Parallelism = 1
				b.ResetTimer()
				var res *core.Result
				var err error
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
}
