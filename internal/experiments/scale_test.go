package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynplace/internal/core"
)

func TestRunScaleSweepSmall(t *testing.T) {
	rows, err := RunScaleSweep(ScaleSweepOptions{
		NodeCounts:          []int{30, 60},
		JobsPerHundredNodes: 40,
		WebApps:             2,
		Parallelism:         4,
		Seed:                3,
	})
	if err != nil {
		t.Fatalf("RunScaleSweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("parallel result diverged at %d nodes", r.Nodes)
		}
		if r.Candidates <= 0 || r.Sequential <= 0 || r.Parallel <= 0 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
		if r.Workers != 4 {
			t.Fatalf("workers = %d, want 4", r.Workers)
		}
	}
	table := ScaleSweepTable(rows)
	if !strings.Contains(table, "speedup") || !strings.Contains(table, "yes") {
		t.Fatalf("ScaleSweepTable:\n%s", table)
	}
}

// TestScaleProblemVerifyIncremental runs the scale sweep's problem at
// 200 nodes with every incremental candidate evaluation cross-checked
// against a full Evaluate, sequentially and on the worker pool: the
// touched-node feasibility shortcut and the reused evaluation state
// must agree with a from-scratch evaluation on every candidate.
func TestScaleProblemVerifyIncremental(t *testing.T) {
	var candidates int
	for _, par := range []int{1, 4} {
		p, err := buildScaleProblem(DefaultScaleSweepOptions(), 200)
		if err != nil {
			t.Fatal(err)
		}
		p.VerifyIncremental = true
		p.Parallelism = par
		res, err := core.Optimize(p)
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		if par == 1 {
			candidates = res.CandidatesEvaluated
		} else if res.CandidatesEvaluated != candidates {
			t.Fatalf("Parallelism %d evaluated %d candidates, sequential %d", par, res.CandidatesEvaluated, candidates)
		}
	}
}

// TestWriteBenchJSON checks the artifact writer round-trips the rows.
func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	rows := []ScaleSweepRow{{Nodes: 500, Apps: 52, Workers: 2, Candidates: 2119, Speedup: 1.25, Identical: true}}
	if err := WriteBenchJSON(dir, "scale_sweep", rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_scale_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back []ScaleSweepRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != rows[0] {
		t.Fatalf("round-trip = %+v, want %+v", back, rows)
	}
}
