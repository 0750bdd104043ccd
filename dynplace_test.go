package dynplace

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
)

func newTestSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"no nodes", []Option{WithControlCycle(60)}},
		{"bad cluster", []Option{WithUniformCluster(0, 100, 100)}},
		{"bad cycle", []Option{WithUniformCluster(1, 100, 100), WithControlCycle(-1)}},
		{"bad policy", []Option{WithUniformCluster(1, 100, 100), WithPolicy("lifo")}},
		{"policy + dynamic", []Option{WithUniformCluster(1, 100, 100),
			WithPolicy("edf"), WithDynamicPlacement()}},
		{"dynamic + policy", []Option{WithUniformCluster(1, 100, 100),
			WithDynamicPlacement(), WithPolicy("edf")}},
		{"bad resolution", []Option{WithUniformCluster(1, 100, 100), WithComparisonResolution(2)}},
		{"bad passes", []Option{WithUniformCluster(1, 100, 100), WithOptimizerPasses(0)}},
		{"negative costs", []Option{WithUniformCluster(1, 100, 100),
			WithPlacementCosts(-1, 0, 0, 0)}},
		{"bad node", []Option{WithNode("x", -5, 100)}},
		{"bad partition", []Option{WithUniformCluster(1, 100, 100), WithStaticWebPartition(-2)}},
		{"bad parallelism", []Option{WithUniformCluster(1, 100, 100), WithParallelism(-1)}},
		{"partition outside cluster", []Option{WithUniformCluster(1, 100, 100), WithStaticWebPartition(3)}},
		{"dynamic + partition", []Option{WithUniformCluster(2, 100, 100),
			WithDynamicPlacement(), WithStaticWebPartition(0)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSystem(tt.opts...); err == nil {
				t.Fatal("NewSystem succeeded, want error")
			}
		})
	}
}

// TestNonFiniteNodeOptionsRejected: the node options apply the
// cluster's finite-and-positive capacity rule, so NaN and ±Inf in CPU
// or memory fail with ErrBadOption as zero and negative values do.
func TestNonFiniteNodeOptionsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name     string
		cpu, mem float64
	}{
		{"NaN CPU", nan, 4096}, {"+Inf CPU", inf, 4096}, {"-Inf CPU", -inf, 4096},
		{"NaN memory", 3000, nan}, {"+Inf memory", 3000, inf}, {"-Inf memory", 3000, -inf},
	} {
		t.Run(c.name, func(t *testing.T) {
			for opt, o := range map[string]Option{
				"WithNode":           WithNode("x", c.cpu, c.mem),
				"WithUniformCluster": WithUniformCluster(2, c.cpu, c.mem),
				"WithClusterSpec":    WithClusterSpec(fmt.Sprintf("2x%v/%v", c.cpu, c.mem)),
			} {
				if _, err := NewSystem(o); !errors.Is(err, ErrBadOption) {
					t.Errorf("%s: err = %v, want ErrBadOption", opt, err)
				}
			}
		})
	}
}

func TestQuickstartFlow(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(1, 1000, 2000),
		WithControlCycle(1),
		WithPolicy("apc"),
		WithFreePlacementActions(),
	)
	if err := sys.SubmitJob(JobSpec{
		Name: "j1", WorkMcycles: 4000, MaxSpeedMHz: 1000, MemoryMB: 750,
		Submit: 0, Deadline: 20,
	}); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if err := sys.RunUntilDrained(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	results := sys.JobResults()
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if !r.Completed || !r.MetGoal {
		t.Fatalf("result = %+v", r)
	}
	if math.Abs(r.CompletedAt-4) > 1e-6 {
		t.Fatalf("CompletedAt = %v, want 4", r.CompletedAt)
	}
	if math.Abs(r.Utility-0.8) > 1e-6 {
		t.Fatalf("Utility = %v, want 0.8", r.Utility)
	}
	if sys.OnTimeRate() != 1 {
		t.Fatalf("OnTimeRate = %v", sys.OnTimeRate())
	}
	if sys.Now() < 4 {
		t.Fatalf("Now = %v", sys.Now())
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(1, 10000, 8000),
		WithControlCycle(60),
		WithDynamicPlacement(),
	)
	web := WebAppSpec{
		Name: "shop", ArrivalRate: 10, DemandPerRequest: 50,
		BaseLatency: 0.01, GoalResponseTime: 0.2, MemoryMB: 500,
	}
	if err := sys.AddWebApp(web); err != nil {
		t.Fatalf("AddWebApp: %v", err)
	}
	if err := sys.AddWebApp(web); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate web app: err = %v", err)
	}
	job := JobSpec{Name: "job", WorkMcycles: 100, MaxSpeedMHz: 100, MemoryMB: 10,
		Submit: 0, Deadline: 100}
	if err := sys.SubmitJob(job); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if err := sys.SubmitJob(job); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate job: err = %v", err)
	}
}

// TestWebAppAddedAfterOtherSetup: a web app registered after a job, a
// node failure and a node join were scheduled is placed like any other
// and gets its series.
func TestWebAppAddedAfterOtherSetup(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(2, 10000, 16000),
		WithControlCycle(60),
		WithDynamicPlacement(),
		WithFreePlacementActions(),
	)
	if err := sys.SubmitJob(JobSpec{Name: "batch", WorkMcycles: 3000 * 600,
		MaxSpeedMHz: 3000, MemoryMB: 6000, Deadline: 3000}); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if err := sys.FailNode(300, 1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := sys.AddNode(360, "spare", 10000, 16000); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := sys.AddWebApp(WebAppSpec{
		Name: "store", ArrivalRate: 50, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2,
		MaxPowerMHz: 8000, MemoryMB: 1000,
	}); err != nil {
		t.Fatalf("AddWebApp: %v", err)
	}
	if err := sys.Run(600); err != nil {
		t.Fatalf("Run: %v", err)
	}
	alloc := sys.WebAllocationSeries("store")
	if len(alloc) == 0 || len(sys.WebUtilitySeries("store")) != len(alloc) {
		t.Fatalf("late web app has %d allocation and %d utility points, want one per cycle",
			len(alloc), len(sys.WebUtilitySeries("store")))
	}
	for _, p := range alloc {
		if p.Value <= 0 {
			t.Fatalf("t=%v: late web app allocated %v MHz, want it placed", p.Time, p.Value)
		}
	}
}

func TestMutationAfterStartRejected(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(1, 1000, 2000),
		WithControlCycle(1),
		WithPolicy("fcfs"),
	)
	if err := sys.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sys.SubmitJob(JobSpec{Name: "late", WorkMcycles: 1, MaxSpeedMHz: 1,
		MemoryMB: 1, Deadline: 10}); !errors.Is(err, ErrStarted) {
		t.Fatalf("late submit: err = %v", err)
	}
	if err := sys.AddWebApp(WebAppSpec{Name: "late"}); !errors.Is(err, ErrStarted) {
		t.Fatalf("late web app: err = %v", err)
	}
}

func TestInvalidSpecsRejected(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(1, 1000, 2000),
		WithControlCycle(1),
		WithPolicy("fcfs"),
	)
	if err := sys.SubmitJob(JobSpec{Name: "bad"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad job: err = %v", err)
	}
	if err := sys.AddWebApp(WebAppSpec{Name: "bad"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad web app: err = %v", err)
	}
}

// TestSpecDecompileRoundTrip: compile → decompile → compile is the
// identity on the compiled form, for the flat single-stage shorthand
// (which decompiles to an explicit stage), a multi-stage profile, and a
// web application — what lets the daemon journal JobSpecOf/WebAppSpecOf
// and rebuild the same registry on replay.
func TestSpecDecompileRoundTrip(t *testing.T) {
	for _, spec := range []JobSpec{
		{Name: "flat", WorkMcycles: 5000, MaxSpeedMHz: 1000, MemoryMB: 750, Submit: 3, Deadline: 60},
		{Name: "staged", Submit: 1, DesiredStart: 2, Deadline: 90, AntiCollocate: []string{"flat"},
			Stages: []Stage{
				{WorkMcycles: 100, MaxSpeedMHz: 500, MinSpeedMHz: 50, MemoryMB: 300},
				{WorkMcycles: 200, MaxSpeedMHz: 800, MemoryMB: 600},
			}},
	} {
		first, err := CompileJob(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		again, err := CompileJob(JobSpecOf(first))
		if err != nil {
			t.Fatalf("%s: decompiled spec does not compile: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: round trip changed the compiled job:\n%+v\n%+v", spec.Name, first, again)
		}
	}
	first, err := CompileWebApp(WebAppSpec{
		Name: "shop", ArrivalRate: 20, DemandPerRequest: 50, BaseLatency: 0.02,
		GoalResponseTime: 0.25, MaxPowerMHz: 4000, MemoryMB: 800,
		AntiCollocate: []string{"staged"}, GoalPercentile: 95,
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := CompileWebApp(WebAppSpecOf(first))
	if err != nil {
		t.Fatalf("decompiled web spec does not compile: %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("round trip changed the compiled web app:\n%+v\n%+v", first, again)
	}
}

// TestJobResultOf: an incomplete job reports only its action counts; a
// completed one adds completion time, goal outcome, distance to goal and
// utility at completion.
func TestJobResultOf(t *testing.T) {
	spec, err := CompileJob(JobSpec{Name: "j", WorkMcycles: 4000, MaxSpeedMHz: 1000, MemoryMB: 500, Deadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	j := scheduler.NewJob(spec)
	scheduler.Apply(0, []*scheduler.Job{j}, []scheduler.Assignment{{Job: j, Node: 0, SpeedMHz: 1000}},
		cluster.FreeCostModel(), metrics.NewCounter())
	j.AdvanceTo(2)
	j.Suspends, j.Resumes, j.Migrations, j.Rescues = 1, 2, 3, 4
	if got, want := JobResultOf(j), (JobResult{Name: "j", Suspends: 1, Resumes: 2, Migrations: 3, Rescues: 4}); got != want {
		t.Fatalf("incomplete job: %+v, want %+v", got, want)
	}
	j.AdvanceTo(6)
	want := JobResult{
		Name: "j", Completed: true, CompletedAt: 4, MetGoal: true, DistanceToGoal: 6, Utility: 0.6,
		Suspends: 1, Resumes: 2, Migrations: 3, Rescues: 4,
	}
	if got := JobResultOf(j); got != want {
		t.Fatalf("completed job: %+v, want %+v", got, want)
	}
}

func TestMultiStageJobThroughPublicAPI(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(1, 1000, 4000),
		WithControlCycle(1),
		WithPolicy("apc"),
		WithFreePlacementActions(),
	)
	err := sys.SubmitJob(JobSpec{
		Name: "etl",
		Stages: []Stage{
			{WorkMcycles: 1000, MaxSpeedMHz: 1000, MemoryMB: 500},
			{WorkMcycles: 500, MaxSpeedMHz: 250, MemoryMB: 1500},
		},
		Submit: 0, Deadline: 30,
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if err := sys.RunUntilDrained(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := sys.JobResults()[0]
	if !r.Completed {
		t.Fatal("multi-stage job incomplete")
	}
	// Stage 1 at 1000 MHz: 1 s. Stage 2 at 250 MHz: 2 s. Total 3 s.
	if math.Abs(r.CompletedAt-3) > 1e-6 {
		t.Fatalf("CompletedAt = %v, want 3", r.CompletedAt)
	}
}

func TestDynamicSharingThroughPublicAPI(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(2, 10000, 16000),
		WithControlCycle(60),
		WithDynamicPlacement(),
		WithFreePlacementActions(),
	)
	if err := sys.AddWebApp(WebAppSpec{
		Name: "store", ArrivalRate: 50, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2,
		MaxPowerMHz: 12000, MemoryMB: 1000,
	}); err != nil {
		t.Fatalf("AddWebApp: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := sys.SubmitJob(JobSpec{
			Name:        jobName("batch", i),
			WorkMcycles: 3000 * 600, MaxSpeedMHz: 3000, MemoryMB: 6000,
			Submit: 0, Deadline: 3000,
		}); err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
	}
	if err := sys.Run(1800); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pts := sys.WebUtilitySeries("store"); len(pts) == 0 {
		t.Fatal("no web utility series")
	}
	if pts := sys.WebAllocationSeries("store"); len(pts) == 0 {
		t.Fatal("no web allocation series")
	}
	if pts := sys.BatchUtilitySeries(); len(pts) == 0 {
		t.Fatal("no batch utility series")
	}
	if pts := sys.BatchAllocationSeries(); len(pts) == 0 {
		t.Fatal("no batch allocation series")
	}
	if pts := sys.WebUtilitySeries("ghost"); pts != nil {
		t.Fatal("unknown app returned a series")
	}
	// Web + batch allocations never exceed cluster capacity.
	webAlloc := sys.WebAllocationSeries("store")
	batchAlloc := sys.BatchAllocationSeries()
	for i := range webAlloc {
		if i < len(batchAlloc) && webAlloc[i].Value+batchAlloc[i].Value > 20000+1 {
			t.Fatalf("t=%v: allocations exceed capacity", webAlloc[i].Time)
		}
	}
}

func TestFailNodeThroughPublicAPI(t *testing.T) {
	sys := newTestSystem(t,
		WithNode("a", 1000, 2000),
		WithNode("b", 1000, 2000),
		WithControlCycle(1),
		WithPolicy("apc"),
		WithFreePlacementActions(),
	)
	for i := 0; i < 2; i++ {
		if err := sys.SubmitJob(JobSpec{
			Name: jobName("j", i), WorkMcycles: 8000, MaxSpeedMHz: 1000,
			MemoryMB: 750, Submit: 0, Deadline: 60,
		}); err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
	}
	if err := sys.FailNode(3, 1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := sys.RunUntilDrained(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rescues := 0
	for _, r := range sys.JobResults() {
		if !r.Completed {
			t.Fatalf("%s incomplete after node failure", r.Name)
		}
		rescues += r.Rescues
	}
	// The displaced job's re-placement is involuntary: it must show up
	// as a rescue, not in the voluntary placement-change metric.
	if rescues == 0 {
		t.Fatal("node failure should force a rescue")
	}
}

func TestStaticPartitionThroughPublicAPI(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(3, 10000, 16000),
		WithControlCycle(60),
		WithPolicy("fcfs"),
		WithStaticWebPartition(0),
	)
	if err := sys.AddWebApp(WebAppSpec{
		Name: "store", ArrivalRate: 20, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2,
		MaxPowerMHz: 8000, MemoryMB: 1000,
	}); err != nil {
		t.Fatalf("AddWebApp: %v", err)
	}
	if err := sys.SubmitJob(JobSpec{
		Name: "batch", WorkMcycles: 3000 * 100, MaxSpeedMHz: 3000,
		MemoryMB: 6000, Submit: 0, Deadline: 2000,
	}); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if err := sys.RunUntilDrained(5000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The static partition fully satisfies the web app.
	pts := sys.WebUtilitySeries("store")
	if len(pts) == 0 {
		t.Fatal("no web series")
	}
	for _, p := range pts {
		if p.Value < 0.5 {
			t.Fatalf("static web utility %v at t=%v", p.Value, p.Time)
		}
	}
	if !sys.JobResults()[0].MetGoal {
		t.Fatal("batch job should meet its goal on its partition")
	}
}

func jobName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}

// TestParallelismDoesNotChangeOutcomes runs the same dynamic-placement
// scenario with sequential and parallel candidate evaluation through
// the public API; job outcomes must match exactly.
func TestParallelismDoesNotChangeOutcomes(t *testing.T) {
	run := func(workers int) []JobResult {
		sys := newTestSystem(t,
			WithUniformCluster(3, 15600, 16384),
			WithControlCycle(300),
			WithDynamicPlacement(),
			WithParallelism(workers),
		)
		if err := sys.AddWebApp(WebAppSpec{
			Name: "web", ArrivalRate: 80, DemandPerRequest: 120,
			BaseLatency: 0.04, GoalResponseTime: 0.25,
			MaxPowerMHz: 20000, MemoryMB: 2000,
		}); err != nil {
			t.Fatalf("AddWebApp: %v", err)
		}
		for j := 0; j < 5; j++ {
			if err := sys.SubmitJob(JobSpec{
				Name: jobName("job", j), WorkMcycles: 3900 * 900,
				MaxSpeedMHz: 3900, MemoryMB: 4320,
				Submit: float64(j) * 200, Deadline: 4 * 3600,
			}); err != nil {
				t.Fatalf("SubmitJob: %v", err)
			}
		}
		if err := sys.RunUntilDrained(36000); err != nil {
			t.Fatalf("RunUntilDrained: %v", err)
		}
		return sys.JobResults()
	}
	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("job %d diverged:\nsequential %+v\nparallel   %+v", i, seq[i], par[i])
		}
	}
}

func TestNodeChurnThroughPublicAPI(t *testing.T) {
	sys := newTestSystem(t,
		WithUniformCluster(2, 1000, 4000),
		WithControlCycle(10),
		WithDynamicPlacement(),
		WithFreePlacementActions(),
	)
	for i := 0; i < 3; i++ {
		if err := sys.SubmitJob(JobSpec{
			Name: jobName("churn", i), WorkMcycles: 60000, MaxSpeedMHz: 1000,
			MemoryMB: 1500, Submit: 0, Deadline: 200,
		}); err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
	}
	// Node 1 dies at t=30; a replacement joins at t=60; node 0 drains at
	// t=100 once the spare is carrying load.
	if err := sys.FailNode(30, 1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := sys.AddNode(60, "spare", 1000, 4000); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := sys.DrainNode(100, 0); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if err := sys.RunUntilDrained(600); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rescues := 0
	for _, r := range sys.JobResults() {
		if !r.Completed {
			t.Fatalf("%s incomplete through churn", r.Name)
		}
		rescues += r.Rescues
	}
	if rescues == 0 {
		t.Fatal("failure produced no rescues")
	}
}

func TestSystemMetrics(t *testing.T) {
	sys, err := NewSystem(
		WithUniformCluster(2, 3000, 4096),
		WithControlCycle(60),
		WithDynamicPlacement(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if m := sys.Metrics(); m != (SystemMetrics{}) {
		t.Fatalf("metrics before run = %+v", m)
	}
	if err := sys.SubmitJob(JobSpec{
		Name: "j", WorkMcycles: 60000, MaxSpeedMHz: 3000, MemoryMB: 100, Deadline: 600,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(300); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	// Cycles at 0, 60, ..., 300; a System never restarts or replays.
	if m.UptimeCycles == 0 || m.Restarts != 0 || m.ReplayDurationSeconds != 0 {
		t.Fatalf("metrics after run = %+v", m)
	}
}
