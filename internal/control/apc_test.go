package control

import (
	"errors"
	"math"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
	"dynplace/internal/trace"
)

func mustAPC(t *testing.T, dyn DynamicConfig) *APC {
	t.Helper()
	apc, err := NewAPC(dyn)
	if err != nil {
		t.Fatalf("NewAPC: %v", err)
	}
	return apc
}

func twoBatchNodes(cpu, mem float64) []scheduler.NodeCapacity {
	return []scheduler.NodeCapacity{
		{ID: 0, CPUMHz: cpu, MemMB: mem},
		{ID: 1, CPUMHz: cpu, MemMB: mem},
	}
}

func pendingJob(name string, work, speed, mem, submit, deadline float64) *scheduler.Job {
	return scheduler.NewJob(batch.SingleStage(name, work, speed, mem, submit, deadline))
}

func TestAPCPolicySchedules(t *testing.T) {
	nodes := twoBatchNodes(1000, 2000)
	a := pendingJob("a", 4000, 1000, 750, 0, 20)
	b := pendingJob("b", 4000, 1000, 750, 0, 20)
	apc := mustAPC(t, DynamicConfig{})
	asg, err := apc.Schedule(0, 1, []*scheduler.Job{a, b}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(asg) != 2 {
		t.Fatalf("assignments = %d, want 2 (both fit)", len(asg))
	}
	// Two identical jobs on two free nodes: both should run at full
	// speed on separate nodes.
	if asg[0].Node == asg[1].Node {
		t.Fatalf("both jobs on node %v; want spread", asg[0].Node)
	}
	for _, x := range asg {
		if math.Abs(x.SpeedMHz-1000) > 1 {
			t.Fatalf("speed = %v, want 1000", x.SpeedMHz)
		}
	}
}

func TestAPCPolicyKeepsPlacementStable(t *testing.T) {
	nodes := twoBatchNodes(1000, 2000)
	a := pendingJob("a", 40000, 1000, 750, 0, 200)
	b := pendingJob("b", 40000, 1000, 750, 0, 200)
	apc := mustAPC(t, DynamicConfig{})
	jobs := []*scheduler.Job{a, b}
	free := cluster.FreeCostModel()
	counter := metrics.NewCounter()
	asg, err := apc.Schedule(0, 10, jobs, nodes, free)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	scheduler.Apply(0, jobs, asg, free, counter)
	for _, j := range jobs {
		j.AdvanceTo(10)
	}
	asg, err = apc.Schedule(10, 10, jobs, nodes, free)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	changes := scheduler.Apply(10, jobs, asg, free, counter)
	if changes != 0 {
		t.Fatalf("steady state caused %d changes", changes)
	}
	if counter.Get(scheduler.ActionSuspend) != 0 || counter.Get(scheduler.ActionMigrate) != 0 {
		t.Fatal("steady state suspended or migrated jobs")
	}
}

func TestAPCPolicyNoNodes(t *testing.T) {
	apc := mustAPC(t, DynamicConfig{})
	if _, err := apc.Schedule(0, 1, nil, nil, cluster.FreeCostModel()); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Schedule with no nodes = %v, want ErrInfeasible", err)
	}
}

func TestAPCPolicyName(t *testing.T) {
	if mustAPC(t, DynamicConfig{}).Name() != "APC" {
		t.Fatal("policy name wrong")
	}
}

func TestNewAPCRejectsNegativeShards(t *testing.T) {
	if _, err := NewAPC(DynamicConfig{Shards: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NewAPC(Shards: -1) = %v, want ErrBadConfig", err)
	}
}

// TestAPCPolicyMatchesBatchOnlyDynamic pins that the APC policy and
// dynamic mode with no web apps decide identically: both build and solve
// through the same solver, under the Runner's one cost model.
func TestAPCPolicyMatchesBatchOnlyDynamic(t *testing.T) {
	for _, tc := range []struct {
		name        string
		costs       cluster.CostModel
		shards      int
		wantChanges int
	}{
		{"free/flat", cluster.FreeCostModel(), 0, 88},
		{"free/2 shards", cluster.FreeCostModel(), 2, 144},
		{"default/flat", cluster.DefaultCostModel(), 0, 99},
		{"default/2 shards", cluster.DefaultCostModel(), 2, 158},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dyn := DynamicConfig{Parallelism: 1, Shards: tc.shards}
			run := func(cfg Config) *Runner {
				cfg.Cluster = mustCluster(t, 4, 15600, 16384)
				cfg.CycleSeconds = 300
				cfg.Costs = tc.costs
				r := mustRunner(t, cfg)
				if err := r.SubmitAll(trace.Experiment2Workload(42, 60, 150)); err != nil {
					t.Fatal(err)
				}
				if err := r.RunUntilDrained(1e7); err != nil {
					t.Fatal(err)
				}
				return r
			}
			policy := run(Config{Policy: mustAPC(t, dyn)})
			dynamic := run(Config{Dynamic: &dyn})
			pj, dj := policy.Jobs(), dynamic.Jobs()
			if len(pj) != len(dj) {
				t.Fatalf("job counts differ: %d vs %d", len(pj), len(dj))
			}
			for i := range pj {
				p, d := pj[i], dj[i]
				if p.CompletedAt != d.CompletedAt || p.Suspends != d.Suspends || p.Migrations != d.Migrations {
					t.Fatalf("%s: policy %v/%d/%d, dynamic %v/%d/%d (completed/suspends/migrations)",
						p.Spec.Name, p.CompletedAt, p.Suspends, p.Migrations,
						d.CompletedAt, d.Suspends, d.Migrations)
				}
			}
			if policy.TotalChanges() != dynamic.TotalChanges() {
				t.Fatalf("changes: policy %d, dynamic %d", policy.TotalChanges(), dynamic.TotalChanges())
			}
			if policy.TotalChanges() != tc.wantChanges {
				t.Fatalf("changes = %d, want %d", policy.TotalChanges(), tc.wantChanges)
			}
		})
	}
}
