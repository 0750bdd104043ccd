package control

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/scheduler"
	"dynplace/internal/trace"
	"dynplace/internal/txn"
)

func mustCluster(t *testing.T, n int, cpu, mem float64) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Uniform(n, cpu, mem)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return cl
}

func mustRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"empty cluster", Config{CycleSeconds: 1, Policy: scheduler.FCFS{}}},
		{"zero cycle", Config{Cluster: cl, Policy: scheduler.FCFS{}}},
		{"no mode", Config{Cluster: cl, CycleSeconds: 1}},
		{"both modes", Config{Cluster: cl, CycleSeconds: 1,
			Policy: scheduler.FCFS{}, Dynamic: &DynamicConfig{}}},
		{"dynamic with web nodes", Config{Cluster: cl, CycleSeconds: 1,
			Dynamic: &DynamicConfig{}, WebNodes: []cluster.NodeID{0}}},
		{"bad web node", Config{Cluster: cl, CycleSeconds: 1,
			Policy: scheduler.FCFS{}, WebNodes: []cluster.NodeID{7}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRunner(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("NewRunner = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 1,
		Policy: mustAPC(t, DynamicConfig{}),
		Costs:  cluster.FreeCostModel(),
	})
	if err := r.Submit(batch.SingleStage("j", 4000, 1000, 750, 0, 20)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.RunUntilDrained(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	jobs := r.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Status != scheduler.Completed {
		t.Fatalf("status = %v", j.Status)
	}
	// 4000 Mcycles at 1000 MHz from t=0: completes at t=4.
	if math.Abs(j.CompletedAt-4) > 1e-6 {
		t.Fatalf("CompletedAt = %v, want 4", j.CompletedAt)
	}
	if !j.MetGoal() {
		t.Fatal("goal missed")
	}
	if r.OnTimeRate() != 1 {
		t.Fatalf("OnTimeRate = %v", r.OnTimeRate())
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	// The Section 4.3 example, both scenarios, run end to end under the
	// APC policy. All three jobs must complete; J3 (goal factor 1) must
	// land essentially on its goal.
	for _, scenario := range []struct {
		name        string
		j2Deadline  float64
		wantChanges int // S1 swaps J1 for J2 later; S2 suspends J1 at t=2
	}{
		{"S1", 17, 0},
		{"S2", 13, 0},
	} {
		t.Run(scenario.name, func(t *testing.T) {
			cl := mustCluster(t, 1, 1000, 2000)
			r := mustRunner(t, Config{
				Cluster: cl, CycleSeconds: 1,
				Policy: mustAPC(t, DynamicConfig{}),
				Costs:  cluster.FreeCostModel(),
			})
			specs := []*batch.Spec{
				batch.SingleStage("J1", 4000, 1000, 750, 0, 20),
				batch.SingleStage("J2", 2000, 500, 750, 1, scenario.j2Deadline),
				batch.SingleStage("J3", 4000, 500, 750, 2, 10),
			}
			if err := r.SubmitAll(specs); err != nil {
				t.Fatalf("SubmitAll: %v", err)
			}
			if err := r.RunUntilDrained(100); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, j := range r.Jobs() {
				if j.Status != scheduler.Completed {
					t.Fatalf("%s incomplete (status %v)", j.Spec.Name, j.Status)
				}
				if !j.MetGoal() {
					t.Fatalf("%s missed its goal: completed %v, deadline %v",
						j.Spec.Name, j.CompletedAt, j.Spec.Deadline)
				}
			}
			// J3 must complete very close to its goal of 10 (it needs
			// the full 8 s from t=2).
			var j3 *scheduler.Job
			for _, j := range r.Jobs() {
				if j.Spec.Name == "J3" {
					j3 = j
				}
			}
			if math.Abs(j3.CompletedAt-10) > 0.5 {
				t.Fatalf("J3 completed at %v, want ≈10", j3.CompletedAt)
			}
		})
	}
}

func TestFCFSvsAPCOnTightWorkload(t *testing.T) {
	// A miniature Experiment Two point: with contention, APC must match
	// FCFS's goal satisfaction while bounding the worst violation far
	// more tightly (the paper's fairness claim).
	runPolicy := func(p scheduler.Policy) (onTime, worst float64) {
		cl := mustCluster(t, 2, 15600, 16384)
		r := mustRunner(t, Config{
			Cluster: cl, CycleSeconds: 100,
			Policy: p,
			Costs:  cluster.FreeCostModel(),
		})
		specs := trace.Experiment2Workload(42, 30, 300)
		if err := r.SubmitAll(specs); err != nil {
			t.Fatalf("SubmitAll: %v", err)
		}
		if err := r.RunUntilDrained(1e7); err != nil {
			t.Fatalf("Run: %v", err)
		}
		worst = math.Inf(1)
		for _, j := range r.Jobs() {
			if j.Status != scheduler.Completed {
				t.Fatalf("%s: job %s incomplete", p.Name(), j.Spec.Name)
			}
			if d := j.DistanceToGoal(); d < worst {
				worst = d
			}
		}
		return r.OnTimeRate(), worst
	}
	fcfsOnTime, fcfsWorst := runPolicy(scheduler.FCFS{})
	apcOnTime, apcWorst := runPolicy(mustAPC(t, DynamicConfig{}))
	if apcOnTime+0.05 < fcfsOnTime {
		t.Fatalf("APC on-time %v well below FCFS %v", apcOnTime, fcfsOnTime)
	}
	if fcfsWorst < 0 && apcWorst < fcfsWorst {
		t.Fatalf("APC worst violation %v exceeds FCFS's %v", apcWorst, fcfsWorst)
	}
}

func TestStaticPartitionWebSeries(t *testing.T) {
	cl := mustCluster(t, 4, 15600, 16384)
	web := &txn.App{
		Name: "tx", ArrivalRate: 20, DemandPerRequest: 480,
		BaseLatency: 0.032, GoalResponseTime: 0.120,
		MaxPowerMHz: 20000, MemoryMB: 2000,
	}
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 50,
		Policy:   scheduler.FCFS{},
		Costs:    cluster.FreeCostModel(),
		WebApps:  []*txn.App{web},
		WebNodes: []cluster.NodeID{0, 1},
	})
	if err := r.Submit(batch.SingleStage("j", 150000, 3900, 4320, 0, 2000)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.Run(500); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Web partition: 2×15600 = 31200 ≥ MaxDemand 20000 → capped demand,
	// constant utility at the cap.
	utils := r.WebUtility(0).Points()
	if len(utils) == 0 {
		t.Fatal("no web utility samples")
	}
	for _, p := range utils {
		if math.Abs(p.V-web.UtilityCap()) > 1e-9 {
			t.Fatalf("web utility %v at t=%v, want constant cap %v", p.V, p.T, web.UtilityCap())
		}
	}
	alloc, ok := r.WebAllocation(0).At(100)
	if !ok || math.Abs(alloc-20000) > 1 {
		t.Fatalf("web allocation = %v, want 20000", alloc)
	}
	// The batch job must have run on the non-reserved nodes.
	j := r.Jobs()[0]
	if j.Node != 2 && j.Node != 3 && j.Status != scheduler.Completed {
		t.Fatalf("job on node %v, want batch partition", j.Node)
	}
}

func TestDynamicSharingEqualizes(t *testing.T) {
	// One web app and enough jobs to saturate: under dynamic management
	// the web app should end up below its cap, with CPU shifted to jobs.
	cl := mustCluster(t, 3, 15600, 16384)
	web := &txn.App{
		Name: "tx", ArrivalRate: 60, DemandPerRequest: 480,
		BaseLatency: 0.032, GoalResponseTime: 0.120,
		MaxPowerMHz: 43000, MemoryMB: 2000,
	}
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 100,
		Dynamic: &DynamicConfig{},
		Costs:   cluster.FreeCostModel(),
		WebApps: []*txn.App{web},
	})
	// 6 jobs (two per node with the web app), tight-ish goals.
	for i := 0; i < 6; i++ {
		spec := batch.SingleStage(
			jobName(i), 3900*2000, 3900, 4320, 0, 5000)
		if err := r.Submit(spec); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := r.Run(1500); err != nil {
		t.Fatalf("Run: %v", err)
	}
	webU, ok := r.WebUtility(0).At(1400)
	if !ok {
		t.Fatal("no web utility")
	}
	if webU >= web.UtilityCap()-1e-6 {
		t.Fatalf("web utility %v stayed at cap under contention", webU)
	}
	hypoU, ok := r.HypotheticalUtility().At(1400)
	if !ok {
		t.Fatal("no hypothetical utility")
	}
	// Equalization: web and batch utilities within a tolerance.
	if math.Abs(webU-hypoU) > 0.15 {
		t.Fatalf("utilities not equalized: web %v batch %v", webU, hypoU)
	}
	// Batch must be receiving substantial CPU. The equalized split gives
	// the web app most of the cluster (its demand curve is steep near
	// λ·c = 28,800 MHz), leaving roughly 10-12k MHz for the jobs.
	balloc, _ := r.BatchAllocation().At(1400)
	if balloc < 9000 {
		t.Fatalf("batch allocation = %v, want ≥9000", balloc)
	}
}

func jobName(i int) string {
	return string(rune('a'+i)) + "-job"
}

func TestFailNodeSuspendsAndRecovers(t *testing.T) {
	cl := mustCluster(t, 2, 1000, 2000)
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 1,
		Policy: mustAPC(t, DynamicConfig{}),
		Costs:  cluster.FreeCostModel(),
	})
	// Two jobs, one per node.
	if err := r.SubmitAll([]*batch.Spec{
		batch.SingleStage("a", 8000, 1000, 750, 0, 60),
		batch.SingleStage("b", 8000, 1000, 750, 0, 60),
	}); err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	if err := r.FailNode(3.5, 1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := r.RunUntilDrained(300); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, j := range r.Jobs() {
		if j.Status != scheduler.Completed {
			t.Fatalf("job %s incomplete after node failure", j.Spec.Name)
		}
		if j.Node == 1 {
			t.Fatalf("job %s completed on failed node", j.Spec.Name)
		}
	}
	// The displaced job must have been suspended and later resumed.
	if r.Actions().Get(scheduler.ActionSuspend) < 1 {
		t.Fatal("no suspend recorded on node failure")
	}
	if r.Actions().Get(scheduler.ActionResume) < 1 {
		t.Fatal("no resume recorded after node failure")
	}
}

func TestFailNodeValidation(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{Cluster: cl, CycleSeconds: 1, Policy: scheduler.FCFS{}})
	if err := r.FailNode(1, 9); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("FailNode = %v, want ErrBadConfig", err)
	}
}

func TestRunHorizonLeavesIncomplete(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{Cluster: cl, CycleSeconds: 1, Policy: scheduler.FCFS{}})
	if err := r.Submit(batch.SingleStage("slow", 1e6, 1000, 750, 0, 1e5)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Jobs()[0].Status == scheduler.Completed {
		t.Fatal("job completed past the horizon")
	}
	if r.Now() > 10+1e-9 {
		t.Fatalf("Now = %v, want ≤10", r.Now())
	}
}

// TestRunCreditsWorkBeforeHorizon: a job finishing after the last cycle
// but before the horizon completes at its exact finish instant, credited
// by the read Run makes at the horizon.
func TestRunCreditsWorkBeforeHorizon(t *testing.T) {
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 1, 1000, 2000), CycleSeconds: 60,
		Dynamic: &DynamicConfig{}, Costs: cluster.FreeCostModel(),
	})
	if err := r.Submit(batch.SingleStage("j", 90000, 1000, 750, 0, 1000)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if j := r.Jobs()[0]; j.Status != scheduler.Completed || j.CompletedAt != 90 {
		t.Fatalf("status %v at %v, want Completed at exactly 90", j.Status, j.CompletedAt)
	}
}

// TestSubmitInThePastAfterRun: a job submitted after Run with a submit
// time already passed is accepted, as the daemon accepts it, and is live
// at the next cycle.
func TestSubmitInThePastAfterRun(t *testing.T) {
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 1, 1000, 2000), CycleSeconds: 60,
		Dynamic: &DynamicConfig{}, Costs: cluster.FreeCostModel(),
	})
	if err := r.Run(120); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.Submit(batch.SingleStage("late", 1e6, 1000, 750, 30, 1e5)); err != nil {
		t.Fatalf("Submit at %v with submit time 30: %v", r.Now(), err)
	}
	if err := r.Run(180); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if j := r.Jobs()[0]; j.Status != scheduler.Running {
		t.Fatalf("status %v after the next cycle, want Running", j.Status)
	}
}

func TestCompletionUtilitiesSeries(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 1,
		Policy: mustAPC(t, DynamicConfig{}),
		Costs:  cluster.FreeCostModel(),
	})
	if err := r.Submit(batch.SingleStage("j", 2000, 1000, 750, 0, 10)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.RunUntilDrained(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pts := r.CompletionUtilities()
	if len(pts) != 1 {
		t.Fatalf("completion points = %d", len(pts))
	}
	// Completed at 2; u = (10−2)/10 = 0.8.
	if math.Abs(pts[0].T-2) > 1e-6 || math.Abs(pts[0].V-0.8) > 1e-6 {
		t.Fatalf("completion point = %+v, want (2, 0.8)", pts[0])
	}
}

func TestQueueLengthSeries(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 1,
		Policy: scheduler.FCFS{},
		Costs:  cluster.FreeCostModel(),
	})
	// Three jobs, two fit (memory): one must queue.
	if err := r.SubmitAll([]*batch.Spec{
		batch.SingleStage("a", 5000, 500, 750, 0, 100),
		batch.SingleStage("b", 5000, 500, 750, 0, 100),
		batch.SingleStage("c", 5000, 500, 750, 0, 100),
	}); err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	if err := r.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	q, ok := r.QueueLength().At(1)
	if !ok || q != 1 {
		t.Fatalf("queue length = %v, want 1", q)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	build := func() *Runner {
		cl := mustCluster(t, 4, 15600, 16384)
		r := mustRunner(t, Config{
			Cluster: cl, CycleSeconds: 300,
			Policy: mustAPC(t, DynamicConfig{}),
			Costs:  cluster.DefaultCostModel(),
		})
		if err := r.SubmitAll(trace.Experiment2Workload(77, 40, 400)); err != nil {
			t.Fatalf("SubmitAll: %v", err)
		}
		if err := r.RunUntilDrained(1e7); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r
	}
	a, b := build(), build()
	ja, jb := a.Jobs(), b.Jobs()
	if len(ja) != len(jb) {
		t.Fatal("job counts differ")
	}
	for i := range ja {
		if ja[i].CompletedAt != jb[i].CompletedAt || ja[i].Suspends != jb[i].Suspends {
			t.Fatalf("nondeterministic outcome for %s: %v/%d vs %v/%d",
				ja[i].Spec.Name, ja[i].CompletedAt, ja[i].Suspends,
				jb[i].CompletedAt, jb[i].Suspends)
		}
	}
	if a.TotalChanges() != b.TotalChanges() {
		t.Fatalf("changes differ: %d vs %d", a.TotalChanges(), b.TotalChanges())
	}
}

func TestWebLoadScheduleApplied(t *testing.T) {
	cl := mustCluster(t, 2, 15600, 16384)
	web := &txn.App{
		Name: "spiky", ArrivalRate: 20, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2,
		MaxPowerMHz: 20000, MemoryMB: 1000,
	}
	r := mustRunner(t, Config{
		Cluster: cl, CycleSeconds: 100,
		Dynamic: &DynamicConfig{},
		Costs:   cluster.FreeCostModel(),
		WebApps: []*txn.App{web},
		WebLoad: [][]LoadPhase{{
			{Start: 500, ArrivalRate: 180},
		}},
	})
	if err := r.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With abundant capacity the app keeps its 20,000 MHz maximum in
	// both phases, but the spike (λ·c: 2,000 → 18,000 MHz) must push the
	// response time up and the utility down at the next cycle.
	before, ok := r.WebUtility(0).At(400)
	if !ok {
		t.Fatal("no early sample")
	}
	after, ok := r.WebUtility(0).At(900)
	if !ok {
		t.Fatal("no late sample")
	}
	if after > before-0.1 {
		t.Fatalf("load spike not reflected in utility: %v -> %v", before, after)
	}
}

// TestRunnerAddNodeExpandsCapacity: capacity added mid-run is picked up
// by the next control cycle and rescues a deadline that was otherwise
// lost (the kill-and-recover half of the churn scenarios).
func TestRunnerAddNodeExpandsCapacity(t *testing.T) {
	run := func(addSpare bool) *Runner {
		cl := mustCluster(t, 1, 1000, 4000)
		r := mustRunner(t, Config{
			Cluster: cl, CycleSeconds: 10,
			Dynamic: &DynamicConfig{},
			Costs:   cluster.FreeCostModel(),
		})
		// Two jobs, each needing the whole node flat out: one node can
		// finish only one of them by the deadline.
		if err := r.SubmitAll([]*batch.Spec{
			batch.SingleStage("a", 90000, 1000, 1500, 0, 120),
			batch.SingleStage("b", 90000, 1000, 1500, 0, 120),
		}); err != nil {
			t.Fatalf("SubmitAll: %v", err)
		}
		if addSpare {
			if err := r.AddNode(20, cluster.Node{Name: "spare", CPUMHz: 1000, MemMB: 4000}); err != nil {
				t.Fatalf("AddNode: %v", err)
			}
		}
		if err := r.RunUntilDrained(600); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r
	}
	if rate := run(false).OnTimeRate(); rate > 0.5+1e-9 {
		t.Fatalf("without the spare node on-time rate = %v, want ≤ 0.5", rate)
	}
	if rate := run(true).OnTimeRate(); rate != 1 {
		t.Fatalf("with the spare node on-time rate = %v, want 1", rate)
	}

	// Kill and recover beside a web application: two of four paper-spec
	// nodes die at t=600, same-sized replacements join at t=1200. No job
	// is abandoned (those on the dead nodes are rescued), the web
	// utility dips while capacity is short, and it is back within 0.02
	// of its pre-failure value by the horizon.
	const failAt, recoverAt, horizon = 600, 1200, 3000
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 4, 15600, 16384), CycleSeconds: 60,
		Costs:   cluster.DefaultCostModel(),
		Dynamic: &DynamicConfig{MaxPasses: 1},
		WebApps: []*txn.App{{
			Name: "web", ArrivalRate: 150, DemandPerRequest: 120,
			BaseLatency: 0.04, GoalResponseTime: 0.25,
			MaxPowerMHz: 30000, MemoryMB: 2000,
		}},
	})
	for j := 0; j < 8; j++ {
		// ~1000 s of work at full speed against a generous deadline.
		if err := r.Submit(batch.SingleStage(fmt.Sprintf("job-%d", j),
			3.9e6, 3900, 4320, 0, horizon*5/6)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for k := 0; k < 2; k++ {
		if err := r.FailNode(failAt, cluster.NodeID(3-k)); err != nil {
			t.Fatalf("FailNode: %v", err)
		}
		if err := r.AddNode(recoverAt, cluster.Node{
			Name: fmt.Sprintf("spare-%d", k), CPUMHz: 15600, MemMB: 16384,
		}); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	if err := r.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, j := range r.Jobs() {
		if j.Status != scheduler.Completed {
			t.Errorf("job %s lost to the node failure", j.Spec.Name)
		}
	}
	if n := r.Actions().Get(scheduler.ActionRescue); n < 1 {
		t.Errorf("rescues = %d, want ≥ 1 (jobs on the dead nodes must be rescued)", n)
	}
	var baseline, final float64
	dip := 1.0
	for _, pt := range r.WebUtility(0).Points() {
		if pt.T < failAt {
			baseline = pt.V
		} else {
			dip = math.Min(dip, pt.V)
		}
		final = pt.V
	}
	if baseline <= 0 || dip >= baseline {
		t.Errorf("no web utility dip through a 2-node failure: baseline %v, dip %v", baseline, dip)
	}
	if final < baseline-0.02 {
		t.Errorf("web utility did not recover: baseline %v, final %v", baseline, final)
	}
}

// TestRunnerAddNodePolicyModeRejected: policy mode has no live
// inventory; node arrival must be an explicit configuration error.
func TestRunnerAddNodePolicyModeRejected(t *testing.T) {
	cl := mustCluster(t, 1, 1000, 2000)
	r := mustRunner(t, Config{Cluster: cl, CycleSeconds: 1, Policy: scheduler.FCFS{}})
	if err := r.AddNode(1, cluster.Node{CPUMHz: 1000, MemMB: 2000}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("AddNode = %v, want ErrBadConfig", err)
	}
	if err := r.DrainNode(1, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("DrainNode = %v, want ErrBadConfig", err)
	}
}

// TestRunnerDeferredInventoryErrors: scheduled node-lifecycle events
// cannot return errors directly, so scenario bugs (duplicate name,
// unknown node at fire time) must surface from Run instead of silently
// running the experiment with a different inventory than configured.
func TestRunnerDeferredInventoryErrors(t *testing.T) {
	mk := func() *Runner {
		cl := mustCluster(t, 1, 1000, 2000)
		return mustRunner(t, Config{
			Cluster: cl, CycleSeconds: 1,
			Dynamic: &DynamicConfig{}, Costs: cluster.FreeCostModel(),
		})
	}
	r := mk()
	if err := r.AddNode(1, cluster.Node{Name: "node-0", CPUMHz: 1000, MemMB: 2000}); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := r.Run(5); !errors.Is(err, cluster.ErrBadNode) {
		t.Fatalf("Run after duplicate-name AddNode = %v, want ErrBadNode", err)
	}
	// Invalid capacity is knowable at schedule time and rejected eagerly.
	if err := mk().AddNode(1, cluster.Node{CPUMHz: 0, MemMB: 100}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("AddNode zero CPU = %v, want ErrBadConfig", err)
	}
	// Unknown node at fire time surfaces from Run too.
	r = mk()
	if err := r.FailNode(1, 7); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := r.Run(5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Run after unknown FailNode = %v, want ErrBadConfig", err)
	}
	// A node scheduled to join earlier is drainable at a later time.
	r = mk()
	if err := r.AddNode(1, cluster.Node{Name: "spare", CPUMHz: 1000, MemMB: 2000}); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := r.DrainNode(3, 1); err != nil {
		t.Fatalf("DrainNode of future node: %v", err)
	}
	if err := r.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n, ok := r.planner.Inventory().Node(1); !ok || n.State != cluster.NodeDraining {
		t.Fatalf("spare state = %+v, want draining", n)
	}
}
