package control

import (
	"errors"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
	"dynplace/internal/txn"
)

func testPlanner(t *testing.T) *Planner {
	t.Helper()
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testApp(name string, rate float64) *txn.App {
	return &txn.App{
		Name: name, ArrivalRate: rate, DemandPerRequest: 50,
		BaseLatency: 0.02, GoalResponseTime: 0.25, MemoryMB: 800,
	}
}

func TestPlannerRegistry(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("a", 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddWebApp(testApp("a", 5)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate AddWebApp err = %v, want ErrBadConfig", err)
	}
	if err := p.AddWebApp(&txn.App{Name: "broken"}); err == nil {
		t.Error("invalid app accepted")
	}
	if !p.SetArrivalRate("a", 12) {
		t.Error("SetArrivalRate failed for registered app")
	}
	if w, _ := p.WebApp("a"); w.ArrivalRate != 12 {
		t.Errorf("ArrivalRate = %v, want 12", w.ArrivalRate)
	}
	if p.SetArrivalRate("a", -1) || p.SetArrivalRate("ghost", 5) {
		t.Error("SetArrivalRate accepted invalid input")
	}
	if !p.RemoveWebApp("a") || p.RemoveWebApp("a") {
		t.Error("RemoveWebApp idempotence broken")
	}
	if len(p.WebApps()) != 0 {
		t.Errorf("WebApps = %v, want empty", p.WebApps())
	}
}

func TestPlannerEmptyPlan(t *testing.T) {
	p := testPlanner(t)
	plan, err := p.Plan(0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 0 || plan.OmegaG != 0 {
		t.Errorf("empty plan = %+v, want no work", plan)
	}
	if _, ok := plan.BatchUtilityMean(); ok {
		t.Error("BatchUtilityMean reported ok with no jobs")
	}
}

func TestPlannerPlacesAndCarriesState(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	spec := &batch.Spec{
		Name:   "job",
		Stages: []batch.Stage{{WorkMcycles: 1e6, MaxSpeedMHz: 2500, MemoryMB: 500}},
		Submit: 0, DesiredStart: 0, Deadline: 1200,
	}
	job := scheduler.NewJob(spec)
	live := []*scheduler.Job{job}

	plan, err := p.Plan(0, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Web[0]) == 0 || plan.WebAllocMHz[0] <= 0 {
		t.Fatalf("web app unplaced: %+v", plan)
	}
	if len(plan.Assignments) != 1 || plan.Assignments[0].SpeedMHz <= 0 {
		t.Fatalf("job unassigned: %+v", plan.Assignments)
	}
	var weights float64
	for _, in := range plan.Web[0] {
		weights += in.PowerMHz
	}
	if diff := weights - plan.WebAllocMHz[0]; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("instance shares sum %v != app allocation %v", weights, plan.WebAllocMHz[0])
	}

	// Failing the web app's node evicts it; the next plan must recover
	// onto the surviving node only.
	failed := plan.Web[0][0].Node
	p.FailNode(failed, 0)
	scheduler.Apply(0, live, plan.Assignments, cluster.FreeCostModel(), metrics.NewCounter())
	if job.Node == failed {
		// The job was on the failed node too; reflect the failure as the
		// runner does before replanning.
		job.Node = scheduler.NoNode
		job.Status = scheduler.Suspended
		job.SpeedMHz = 0
	}
	plan2, err := p.Plan(60, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range plan2.Web[0] {
		if in.Node == failed {
			t.Errorf("web instance still on failed node %d", failed)
		}
	}
	for _, a := range plan2.Assignments {
		if a.Node == failed {
			t.Errorf("job assigned to failed node %d", failed)
		}
	}
}

// TestPlannerSurfacesInfeasible drives the planner into a genuinely
// unsolvable state — a placed web application whose arrival rate jumps
// past its hosting capacity — and checks the failure is reported as
// core.ErrInfeasible and counted in the planner's cycle metrics instead
// of being indistinguishable from a malformed input.
func TestPlannerSurfacesInfeasible(t *testing.T) {
	cl, err := cluster.Uniform(1, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddWebApp(testApp("web", 10)); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(0, 600, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(plan.Web[0]) == 0 {
		t.Fatal("web app not placed")
	}
	if got := p.InfeasibleCycles(); got != 0 {
		t.Fatalf("InfeasibleCycles = %d before failure", got)
	}
	// λ·c = 200·50 = 10,000 MHz against a 3,000 MHz node: the carried
	// placement cannot sustain the new rate at any utility level.
	if !p.SetArrivalRate("web", 200) {
		t.Fatal("SetArrivalRate")
	}
	if _, err := p.Plan(600, 600, nil); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Plan = %v, want core.ErrInfeasible", err)
	}
	if got := p.InfeasibleCycles(); got != 1 {
		t.Fatalf("InfeasibleCycles = %d, want 1", got)
	}
}

// TestPlannerShardedMode runs the planner with the shard coordinator
// engaged: the plan must carry per-zone stats, place the workload, and
// keep ShardStats consistent with the last cycle. A flat planner must
// report no shard stats at all.
func TestPlannerShardedMode(t *testing.T) {
	cl, err := cluster.Uniform(4, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{Shards: 2, ShardSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	spec := &batch.Spec{
		Name:   "job",
		Stages: []batch.Stage{{WorkMcycles: 1e6, MaxSpeedMHz: 2500, MemoryMB: 500}},
		Submit: 0, DesiredStart: 0, Deadline: 1200,
	}
	live := []*scheduler.Job{scheduler.NewJob(spec)}
	plan, err := p.Plan(0, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 2 {
		t.Fatalf("plan shards = %d, want 2", len(plan.Shards))
	}
	if len(plan.Assignments) != 1 || plan.WebAllocMHz[0] <= 0 {
		t.Fatalf("sharded plan left workload unplaced: %+v", plan)
	}
	got := p.ShardStats()
	if len(got) != 2 {
		t.Fatalf("ShardStats = %d entries, want 2", len(got))
	}
	if got[0].Nodes+got[1].Nodes != 4 {
		t.Fatalf("shard nodes sum to %d, want 4", got[0].Nodes+got[1].Nodes)
	}

	if flat := testPlanner(t); flat.ShardStats() != nil {
		t.Fatal("flat planner reports shard stats")
	}
}

// TestPlannerShardCountValidation pins that a bad shard count is
// rejected at construction, not at the first cycle.
func TestPlannerShardCountValidation(t *testing.T) {
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{Shards: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Shards -1: err = %v, want ErrBadConfig", err)
	}
}

// TestPlannerRescuesJobsOnVanishedNodes: a job whose node failed between
// cycles must requeue as Suspended (progress intact, Evicted set) at the
// next Plan call and be reassigned to surviving capacity, rather than
// keeping a dangling Node reference.
func TestPlannerRescuesJobsOnVanishedNodes(t *testing.T) {
	p := testPlanner(t)
	spec := &batch.Spec{
		Name:   "job",
		Stages: []batch.Stage{{WorkMcycles: 1e6, MaxSpeedMHz: 2500, MemoryMB: 500}},
		Submit: 0, DesiredStart: 0, Deadline: 1200,
	}
	job := scheduler.NewJob(spec)
	live := []*scheduler.Job{job}
	counter := metrics.NewCounter()

	plan, err := p.Plan(0, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	scheduler.Apply(0, live, plan.Assignments, cluster.FreeCostModel(), counter)
	if job.Status != scheduler.Running {
		t.Fatalf("job not running after first cycle: %+v", job)
	}
	job.AdvanceTo(60)
	doneBefore := job.Done
	if doneBefore <= 0 {
		t.Fatal("job made no progress before the failure")
	}

	// The node dies; only the inventory knows until the next Plan.
	p.FailNode(job.Node, 60)
	failed := job.Node
	plan2, err := p.Plan(60, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != scheduler.Suspended || !job.Evicted || job.Node != scheduler.NoNode {
		t.Fatalf("job not rescued-suspended by Plan: %+v", job)
	}
	if job.Done != doneBefore {
		t.Fatalf("rescue lost progress: %v -> %v", doneBefore, job.Done)
	}
	if len(plan2.Assignments) != 1 || plan2.Assignments[0].Node == failed {
		t.Fatalf("no rescue assignment off the failed node: %+v", plan2.Assignments)
	}
	scheduler.Apply(60, live, plan2.Assignments, cluster.FreeCostModel(), counter)
	if job.Rescues != 1 || counter.Get(scheduler.ActionRescue) != 1 {
		t.Fatalf("rescue not counted: job %+v, counter %d", job, counter.Get(scheduler.ActionRescue))
	}
	if plan2.InventoryVersion <= plan.InventoryVersion {
		t.Fatalf("inventory version did not advance: %d -> %d",
			plan.InventoryVersion, plan2.InventoryVersion)
	}
}

// TestPlannerNoActiveNodesIsInfeasible: losing every node while work is
// live must fail the cycle as core.ErrInfeasible (counted), not as a
// generic malformed-problem error.
func TestPlannerNoActiveNodesIsInfeasible(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	p.FailNode(0, 0)
	p.FailNode(1, 0)
	_, err := p.Plan(0, 60, nil)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Plan = %v, want core.ErrInfeasible", err)
	}
	if p.InfeasibleCycles() != 1 {
		t.Fatalf("InfeasibleCycles = %d, want 1", p.InfeasibleCycles())
	}
	// Fresh capacity heals the next cycle.
	addNode(t, p, cluster.Node{CPUMHz: 3000, MemMB: 4096})
	plan, err := p.Plan(60, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Web[0]) == 0 {
		t.Fatalf("web app unplaced on the replacement node: %+v", plan.Web)
	}
}

// TestPlannerDrainMigratesWebOff: a draining node stops hosting at the
// next plan without ever passing through an evicted/unplaced state.
func TestPlannerDrainMigratesWebOff(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Web[0]) == 0 {
		t.Fatal("web app unplaced")
	}
	target := plan.Web[0][0].Node
	if err := p.DrainNode(target); err != nil {
		t.Fatal(err)
	}
	if p.WebInstancesOn(target) == 0 {
		t.Fatal("drain evicted eagerly; instances should keep serving until the replan")
	}
	plan2, err := p.Plan(60, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Web[0]) == 0 || plan2.WebAllocMHz[0] <= 0 {
		t.Fatalf("web app lost during drain: %+v", plan2)
	}
	for _, in := range plan2.Web[0] {
		if in.Node == target {
			t.Fatalf("instance still on draining node %d", target)
		}
	}
	if p.WebInstancesOn(target) != 0 {
		t.Fatal("draining node still occupied after replan")
	}
	if err := p.RemoveNode(target); err != nil {
		t.Fatalf("RemoveNode after drain: %v", err)
	}
	if err := p.RemoveNode(target); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("double remove = %v, want ErrBadConfig", err)
	}
}

// TestPlannerQuiesceByRateZero: rate 0 through the planner entry point
// releases the app's allocation without deregistering it, and a later
// positive rate revives it.
func TestPlannerQuiesceByRateZero(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("web", 20)); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WebAllocMHz[0] <= 0 {
		t.Fatalf("active app got no CPU: %+v", plan)
	}
	if !p.SetArrivalRate("web", 0) {
		t.Fatal("SetArrivalRate(0) rejected")
	}
	plan2, err := p.Plan(60, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.WebAllocMHz[0] != 0 {
		t.Fatalf("quiesced app still allocated %v MHz", plan2.WebAllocMHz[0])
	}
	if plan2.WebUtilities[0] <= 0 {
		t.Fatalf("quiesced app utility = %v, want its cap (idle is not failure)", plan2.WebUtilities[0])
	}
	if !p.SetArrivalRate("web", 20) {
		t.Fatal("revival rejected")
	}
	plan3, err := p.Plan(120, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.WebAllocMHz[0] <= 0 {
		t.Fatalf("revived app got no CPU: %+v", plan3)
	}
}

// TestPlannerSingleShardIdenticalUnderChurn pins the sharding contract
// on a mutated inventory: a planner running the one-zone coordinator
// must produce bit-identical plans to a flat planner through a node
// failure and a node arrival.
func TestPlannerSingleShardIdenticalUnderChurn(t *testing.T) {
	mk := func(shards int) *Planner {
		cl, err := cluster.Uniform(4, 3000, 4096)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddWebApp(testApp("web", 8)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkJobs := func() []*scheduler.Job {
		var out []*scheduler.Job
		for i := 0; i < 3; i++ {
			out = append(out, scheduler.NewJob(&batch.Spec{
				Name:   jobName(i),
				Stages: []batch.Stage{{WorkMcycles: 3e6, MaxSpeedMHz: 2500, MemoryMB: 900}},
				Submit: 0, DesiredStart: 0, Deadline: 7200,
			}))
		}
		return out
	}
	sharded, flat := mk(1), mk(0)
	liveA, liveB := mkJobs(), mkJobs()
	counter := metrics.NewCounter()

	compare := func(now float64, step string) {
		planA, errA := sharded.Plan(now, 60, liveA)
		planB, errB := flat.Plan(now, 60, liveB)
		if errA != nil || errB != nil {
			t.Fatalf("%s: plan errors %v / %v", step, errA, errB)
		}
		if len(planA.Assignments) != len(planB.Assignments) {
			t.Fatalf("%s: %d vs %d assignments", step, len(planA.Assignments), len(planB.Assignments))
		}
		for k := range planA.Assignments {
			a, b := planA.Assignments[k], planB.Assignments[k]
			if a.Node != b.Node || a.SpeedMHz != b.SpeedMHz {
				t.Fatalf("%s: assignment %d diverged: %+v vs %+v", step, k, a, b)
			}
		}
		for i := range planA.Web {
			if len(planA.Web[i]) != len(planB.Web[i]) {
				t.Fatalf("%s: web %d instance counts diverged", step, i)
			}
			for k := range planA.Web[i] {
				if planA.Web[i][k] != planB.Web[i][k] {
					t.Fatalf("%s: web instance diverged: %+v vs %+v",
						step, planA.Web[i][k], planB.Web[i][k])
				}
			}
		}
		scheduler.Apply(now, liveA, planA.Assignments, cluster.FreeCostModel(), counter)
		scheduler.Apply(now, liveB, planB.Assignments, cluster.FreeCostModel(), counter)
		for _, jobs := range [][]*scheduler.Job{liveA, liveB} {
			for _, j := range jobs {
				j.AdvanceTo(now + 60)
			}
		}
	}

	compare(0, "steady")
	compare(60, "steady2")
	sharded.FailNode(1, 120)
	flat.FailNode(1, 120)
	compare(120, "after failure")
	addNode(t, sharded, cluster.Node{Name: "spare", CPUMHz: 3000, MemMB: 4096})
	addNode(t, flat, cluster.Node{Name: "spare", CPUMHz: 3000, MemMB: 4096})
	compare(180, "after recovery")
}

// addNode registers n under the ID NextNode picks, as the Runner does.
func addNode(t *testing.T, p *Planner, n cluster.Node) {
	t.Helper()
	n, err := p.Inventory().NextNode(n)
	if err == nil {
		err = p.AddNode(n)
	}
	if err != nil {
		t.Fatal(err)
	}
}
