package experiments

import (
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

func TestRunShardSweepSmall(t *testing.T) {
	rows, err := RunShardSweep(ShardSweepOptions{
		NodeCounts:          []int{40, 80},
		Shards:              4,
		FlatNodeCap:         40,
		JobsPerHundredNodes: 40,
		WebApps:             2,
		Seed:                3,
	})
	if err != nil {
		t.Fatalf("RunShardSweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.CapacityOK {
			t.Fatalf("capacity violated at %d nodes", r.Nodes)
		}
		if r.Sharded <= 0 || r.Shards != 4 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
	}
	// The 40-node row ran the flat leg and the single-shard identity
	// check; the 80-node row was sharded-only.
	if rows[0].Flat <= 0 || !rows[0].SingleShardIdentical {
		t.Fatalf("flat-leg row: %+v", rows[0])
	}
	if rows[1].Flat != 0 || rows[1].SingleShardIdentical {
		t.Fatalf("sharded-only row ran the flat leg: %+v", rows[1])
	}
	table := ShardSweepTable(rows)
	if !strings.Contains(table, "IDENTICAL") || !strings.Contains(table, "ok") {
		t.Fatalf("ShardSweepTable:\n%s", table)
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
