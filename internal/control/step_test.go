package control

import (
	"math"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/obs"
	"dynplace/internal/scheduler"
)

func stepJob(name string, work, submit float64) *batch.Spec {
	return &batch.Spec{
		Name:   name,
		Stages: []batch.Stage{{WorkMcycles: work, MaxSpeedMHz: 2500, MemoryMB: 500}},
		Submit: submit, DesiredStart: submit, Deadline: submit + 3600,
	}
}

// step runs one full control step at now and returns the live set.
func step(t *testing.T, p *Planner, now float64) (live, retired []*scheduler.Job, queued int) {
	t.Helper()
	live, retired = p.Advance(now)
	plan, err := p.Plan(now, 60, live)
	if err != nil {
		t.Fatal(err)
	}
	_, queued = p.Apply(now, live, plan.Assignments)
	return live, retired, queued
}

// TestPlannerStepLedger walks jobs through the ledger: a future
// submission stays out of the live set, a running job completes and is
// retired exactly once, and the survivors keep submission order.
func TestPlannerStepLedger(t *testing.T) {
	p := testPlanner(t)
	short := p.Submit(stepJob("short", 2500*30, 0))
	later := p.Submit(stepJob("later", 1e6, 90))
	if got := p.Jobs(); len(got) != 2 || got[0] != short || got[1] != later {
		t.Fatalf("ledger = %v, want [short later]", got)
	}

	live, retired, queued := step(t, p, 0)
	if len(live) != 1 || live[0] != short || len(retired) != 0 || queued != 0 {
		t.Fatalf("t=0: live %v, retired %v, queued %d; want [short], none, 0", live, retired, queued)
	}
	if short.Status != scheduler.Running || p.Actions().Get(scheduler.ActionStart) != 1 {
		t.Fatalf("short not started: %+v, starts %d", short, p.Actions().Get(scheduler.ActionStart))
	}

	live, retired, _ = step(t, p, 120)
	if len(retired) != 1 || retired[0] != short || short.Status != scheduler.Completed {
		t.Fatalf("t=120: retired %v, want [short] completed", retired)
	}
	if len(live) != 1 || live[0] != later {
		t.Fatalf("t=120: live %v, want [later]", live)
	}
	if got := p.Jobs(); len(got) != 1 || got[0] != later {
		t.Fatalf("ledger after retirement = %v, want [later]", got)
	}
	if _, retired, _ = step(t, p, 180); len(retired) != 0 {
		t.Fatalf("a retired job was retired again: %v", retired)
	}

	// A controller restart evicts whatever is placed, once.
	if n := p.EvictPlaced(); n != 1 || !later.Evicted || later.Node != scheduler.NoNode {
		t.Fatalf("EvictPlaced = %d, job %+v; want 1 evicted", n, later)
	}
	if n := p.EvictPlaced(); n != 0 {
		t.Fatalf("second EvictPlaced = %d, want 0", n)
	}
	if got := p.Actions().Get(scheduler.ActionSuspend); got != 1 {
		t.Fatalf("suspends = %d, want 1", got)
	}

	p.RestoreJobs(nil)
	if len(p.Jobs()) != 0 {
		t.Fatal("RestoreJobs(nil) left jobs in the ledger")
	}
}

// TestPlannerFailNodeEvictsAtFailureInstant: FailNode advances the
// node's jobs to the failure instant, evicts the unfinished ones with
// their progress, counts each as a suspend, and leaves jobs elsewhere
// and jobs that finished before the failure alone.
func TestPlannerFailNodeEvictsAtFailureInstant(t *testing.T) {
	p := testPlanner(t)
	a := p.Submit(stepJob("a", 2500*600, 0))
	b := p.Submit(stepJob("b", 2500*600, 0))
	step(t, p, 0)
	if a.Node == b.Node || a.Node == scheduler.NoNode || b.Node == scheduler.NoNode {
		t.Fatalf("jobs not spread over both nodes: a on %d, b on %d", a.Node, b.Node)
	}
	failed := a.Node
	evicted := p.FailNode(failed, 30)
	if len(evicted) != 1 || evicted[0] != a {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if a.Status != scheduler.Suspended || !a.Evicted || a.Done <= 0 {
		t.Fatalf("a after failure = %+v, want suspended, evicted, progress kept", a)
	}
	if b.Status != scheduler.Running {
		t.Fatalf("b on the surviving node = %+v, want running", b)
	}
	if got := p.Actions().Get(scheduler.ActionSuspend); got != 1 {
		t.Fatalf("suspends = %d, want 1", got)
	}
	if n, _ := p.Inventory().Node(failed); n.State != cluster.NodeFailed {
		t.Fatalf("node state = %v, want failed", n.State)
	}

	// A job that finishes before the failure instant completes instead
	// of being evicted.
	q := testPlanner(t)
	c := q.Submit(stepJob("c", 2500*20, 0))
	step(t, q, 0)
	if evicted := q.FailNode(c.Node, 60); len(evicted) != 0 || c.Status != scheduler.Completed {
		t.Fatalf("finished job: evicted %v, status %v; want none, completed", evicted, c.Status)
	}
	if got := q.Actions().Get(scheduler.ActionSuspend); got != 0 {
		t.Fatalf("suspends = %d, want 0", got)
	}
}

// TestPlannerLoadPhases pins the one load-phase rule: a phase applies
// at the first Advance at or after its start and is then dropped;
// phases due together apply in list order, so a schedule written out of
// order (as an old journal may hold) still replays; rates the planner
// cannot use are skipped.
func TestPlannerLoadPhases(t *testing.T) {
	p := testPlanner(t)
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	if p.ScheduleLoad("ghost", []LoadPhase{{Start: 1, ArrivalRate: 1}}) || p.LoadSchedule("ghost") != nil {
		t.Fatal("schedule accepted for an unknown app")
	}
	p.ScheduleLoad("web", []LoadPhase{
		{Start: 100, ArrivalRate: 5},
		{Start: 50, ArrivalRate: 3},
		{Start: 70, ArrivalRate: -1},
		{Start: 70, ArrivalRate: math.NaN()},
	})
	w, _ := p.WebApp("web")
	for _, tc := range []struct {
		now     float64
		rate    float64
		pending int
	}{
		{0, 5, 4}, {60, 3, 3}, {80, 3, 1}, {100, 5, 0}, {200, 5, 0},
	} {
		p.Advance(tc.now)
		if w.ArrivalRate != tc.rate || len(p.LoadSchedule("web")) != tc.pending {
			t.Fatalf("t=%v: rate %v with %d pending, want %v with %d",
				tc.now, w.ArrivalRate, len(p.LoadSchedule("web")), tc.rate, tc.pending)
		}
	}
	p.ScheduleLoad("web", []LoadPhase{{Start: 300, ArrivalRate: 9}})
	if !p.RemoveWebApp("web") || p.LoadSchedule("web") != nil {
		t.Fatal("removing the app kept its schedule")
	}
}

// TestPlannerTracedExplainedStep covers the decide half with its
// optional outputs: a traced, explained, single-zone sharded solve and
// the carried-state accessors a durable host journals.
func TestPlannerTracedExplainedStep(t *testing.T) {
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(cl, cluster.FreeCostModel(), DynamicConfig{Explain: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddWebApp(testApp("web", 5)); err != nil {
		t.Fatal(err)
	}
	p.Submit(stepJob("job", 1e6, 0))
	tracer := obs.NewTracer(4)
	for _, now := range []float64{0, 60} {
		ct := tracer.Begin(int64(now/60)+1, now)
		live, _ := p.Advance(now)
		plan, err := p.PlanTraced(now, 60, live, ct)
		if err != nil {
			t.Fatal(err)
		}
		p.Apply(now, live, plan.Assignments)
		view := tracer.Finish(ct, "")
		if plan.Explanation == nil || len(plan.Explanation.Apps) != 2 || len(plan.Shards) != 1 {
			t.Fatalf("t=%v: explanation %+v, shards %v", now, plan.Explanation, plan.Shards)
		}
		if len(view.Spans) == 0 {
			t.Fatalf("t=%v: no spans traced", now)
		}
	}
	nodes, ok := p.WebPlacement("web")
	if !ok || len(nodes) == 0 {
		t.Fatalf("WebPlacement = %v, %v", nodes, ok)
	}
	if !p.RestoreWebPlacement("web", nodes[:1]) || p.RestoreWebPlacement("ghost", nil) {
		t.Fatal("RestoreWebPlacement reported the wrong registrations")
	}
	if _, ok := p.WebPlacement("ghost"); ok {
		t.Fatal("WebPlacement found an unknown app")
	}
	p.RestoreInfeasibleCycles(3)
	if p.InfeasibleCycles() != 3 {
		t.Fatalf("InfeasibleCycles = %d, want 3", p.InfeasibleCycles())
	}
	if _, ok := p.ForecastRate("web", 0, 60); ok {
		t.Fatal("forecast reported with forecasting off")
	}
}
