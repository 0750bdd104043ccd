package scheduler

import (
	"math"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/metrics"
)

func spec(name string, work, speed, mem, submit, deadline float64) *batch.Spec {
	return batch.SingleStage(name, work, speed, mem, submit, deadline)
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Pending: "pending", Running: "running", Paused: "paused",
		Suspended: "suspended", Completed: "completed", Status(42): "Status(42)",
	} {
		if got := s.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestJobAdvance(t *testing.T) {
	j := NewJob(spec("j", 4000, 1000, 100, 0, 20))
	j.Status = Running
	j.Node = 0
	j.SpeedMHz = 1000
	j.Started = true
	j.AdvanceTo(2)
	if math.Abs(j.Done-2000) > 1e-9 {
		t.Fatalf("Done = %v, want 2000", j.Done)
	}
	if j.Status != Running {
		t.Fatalf("Status = %v", j.Status)
	}
	// Finish exactly: remaining 2000 at 1000 MHz → completes at t=4.
	j.AdvanceTo(4)
	if j.Status != Completed {
		t.Fatalf("Status = %v, want completed", j.Status)
	}
	if math.Abs(j.CompletedAt-4) > 1e-9 {
		t.Fatalf("CompletedAt = %v, want 4", j.CompletedAt)
	}
	if !j.MetGoal() {
		t.Fatal("job met its goal")
	}
	if math.Abs(j.DistanceToGoal()-16) > 1e-9 {
		t.Fatalf("DistanceToGoal = %v, want 16", j.DistanceToGoal())
	}
}

func TestJobAdvanceOvershoot(t *testing.T) {
	// Advancing beyond the completion instant must back-date CompletedAt.
	j := NewJob(spec("j", 1000, 1000, 100, 0, 20))
	j.Status = Running
	j.SpeedMHz = 1000
	j.AdvanceTo(5)
	if j.Status != Completed || math.Abs(j.CompletedAt-1) > 1e-9 {
		t.Fatalf("CompletedAt = %v (status %v), want 1", j.CompletedAt, j.Status)
	}
}

func TestJobBlockedByActionCost(t *testing.T) {
	j := NewJob(spec("j", 1000, 1000, 100, 0, 20))
	j.Status = Running
	j.SpeedMHz = 1000
	j.BlockedUntil = 2 // e.g. boot finishes at t=2
	j.AdvanceTo(2)
	if j.Done != 0 {
		t.Fatalf("progress during block: %v", j.Done)
	}
	j.AdvanceTo(2.5)
	if math.Abs(j.Done-500) > 1e-9 {
		t.Fatalf("Done = %v, want 500", j.Done)
	}
}

func TestJobNoProgressWhenSuspendedOrPending(t *testing.T) {
	j := NewJob(spec("j", 1000, 1000, 100, 0, 20))
	j.AdvanceTo(3)
	if j.Done != 0 {
		t.Fatal("pending job progressed")
	}
	j.Status = Suspended
	j.AdvanceTo(5)
	if j.Done != 0 {
		t.Fatal("suspended job progressed")
	}
}

// TestAdvanceToCompletesBlockedJob: a read past the finish completes a
// blocked job at the exact instant its work ran out, not at the read.
func TestAdvanceToCompletesBlockedJob(t *testing.T) {
	j := NewJob(spec("j", 4000, 1000, 100, 0, 20))
	j.Status = Running
	j.SpeedMHz = 500
	j.BlockedUntil = 1
	j.AdvanceTo(20)
	if j.Status != Completed || j.CompletedAt != 9 {
		t.Fatalf("status %v at %v, want Completed at exactly 9 (block 1 + 4000/500)", j.Status, j.CompletedAt)
	}
}

func TestApplyTransitions(t *testing.T) {
	costs := cluster.DefaultCostModel()
	counter := metrics.NewCounter()
	fresh := NewJob(spec("fresh", 4000, 1000, 1000, 0, 40))
	running := NewJob(spec("running", 4000, 1000, 1000, 0, 40))
	running.Status = Running
	running.Node = 1
	running.SpeedMHz = 500
	running.Started = true
	victim := NewJob(spec("victim", 4000, 1000, 1000, 0, 40))
	victim.Status = Running
	victim.Node = 2
	victim.SpeedMHz = 500
	victim.Started = true
	jobs := []*Job{fresh, running, victim}

	changes := Apply(10, jobs, []Assignment{
		{Job: fresh, Node: 0, SpeedMHz: 800}, // start
		{Job: running, Node: 1, SpeedMHz: 900},
		// victim not assigned → suspended
	}, costs, counter)

	if fresh.Status != Running || fresh.Node != 0 || !fresh.Started {
		t.Fatalf("fresh = %+v", fresh)
	}
	if math.Abs(fresh.BlockedUntil-13.6) > 1e-9 {
		t.Fatalf("fresh BlockedUntil = %v, want 13.6 (boot)", fresh.BlockedUntil)
	}
	if running.SpeedMHz != 900 || running.Node != 1 || running.Migrations != 0 {
		t.Fatalf("running = %+v", running)
	}
	if victim.Status != Suspended || victim.Node != NoNode || victim.LastNode != 2 {
		t.Fatalf("victim = %+v", victim)
	}
	if counter.Get(ActionStart) != 1 || counter.Get(ActionSuspend) != 1 {
		t.Fatalf("counter = %v starts, %v suspends", counter.Get(ActionStart), counter.Get(ActionSuspend))
	}
	// Figure 4 counts disruptions only: the suspend, not the start.
	if changes != 1 {
		t.Fatalf("changes = %d, want 1", changes)
	}

	// Resume the victim on a different node: resume + migrate.
	changes = Apply(20, jobs, []Assignment{
		{Job: fresh, Node: 0, SpeedMHz: 800},
		{Job: running, Node: 3, SpeedMHz: 900}, // live migration
		{Job: victim, Node: 5, SpeedMHz: 400},  // move and resume
	}, costs, counter)
	if victim.Status != Running || victim.Node != 5 {
		t.Fatalf("victim after resume = %+v", victim)
	}
	wantBlock := 20 + costs.Resume(1000) + costs.Migrate(1000)
	if math.Abs(victim.BlockedUntil-wantBlock) > 1e-9 {
		t.Fatalf("victim BlockedUntil = %v, want %v", victim.BlockedUntil, wantBlock)
	}
	if running.Migrations != 1 {
		t.Fatalf("running migrations = %d, want 1", running.Migrations)
	}
	if changes != 3 { // resume + its migrate + live migrate
		t.Fatalf("changes = %d, want 3", changes)
	}
}

func TestApplyPause(t *testing.T) {
	j := NewJob(spec("j", 4000, 1000, 1000, 0, 40))
	j.Status = Running
	j.Node = 0
	j.SpeedMHz = 500
	j.Started = true
	counter := metrics.NewCounter()
	Apply(5, []*Job{j}, []Assignment{{Job: j, Node: 0, SpeedMHz: 0}}, cluster.FreeCostModel(), counter)
	if j.Status != Paused || j.Node != 0 {
		t.Fatalf("job = %+v, want paused in place", j)
	}
	if counter.Total() != 0 {
		t.Fatal("pausing should not count as a placement action")
	}
}

// TestApplyZeroSpeedPendingStaysPending is the regression test for the
// boot-charge bug: a never-started job assigned a node with no CPU must
// not pay the boot cost, count a start, or leave the Pending state.
func TestApplyZeroSpeedPendingStaysPending(t *testing.T) {
	costs := cluster.DefaultCostModel()
	counter := metrics.NewCounter()
	j := NewJob(spec("idleplaced", 4000, 1000, 1000, 0, 40))

	changes := Apply(10, []*Job{j}, []Assignment{{Job: j, Node: 2, SpeedMHz: 0}}, costs, counter)

	if j.Status != Pending || j.Started || j.Starts != 0 {
		t.Fatalf("job = %+v, want untouched pending job", j)
	}
	if j.Node != NoNode {
		t.Fatalf("node = %v, want NoNode", j.Node)
	}
	if j.BlockedUntil != 0 {
		t.Fatalf("BlockedUntil = %v, want no boot charge", j.BlockedUntil)
	}
	if counter.Total() != 0 || changes != 0 {
		t.Fatalf("actions = %d, changes = %d, want none", counter.Total(), changes)
	}

	// A positive-speed assignment later starts it normally.
	Apply(20, []*Job{j}, []Assignment{{Job: j, Node: 2, SpeedMHz: 800}}, costs, counter)
	if j.Status != Running || j.Starts != 1 || counter.Get(ActionStart) != 1 {
		t.Fatalf("job after real start = %+v", j)
	}
}

// TestApplyRescueAccounting pins the involuntary-move bookkeeping: an
// evicted job's re-placement counts as a rescue (plus the underlying
// resume/migrate actions) but not as a voluntary Figure-4 change.
func TestApplyRescueAccounting(t *testing.T) {
	costs := cluster.DefaultCostModel()
	counter := metrics.NewCounter()
	j := NewJob(spec("survivor", 8000, 1000, 1000, 0, 100))
	j.Status = Running
	j.Node = 1
	j.SpeedMHz = 1000
	j.Started = true
	j.Done = 3000

	j.Evict()
	if j.Status != Suspended || !j.Evicted || j.Node != NoNode || j.LastNode != 1 {
		t.Fatalf("after Evict: %+v", j)
	}
	if j.Done != 3000 {
		t.Fatalf("eviction lost progress: Done = %v", j.Done)
	}
	if j.Suspends != 1 {
		t.Fatalf("Suspends = %d, want 1", j.Suspends)
	}

	// Re-placement on another node: rescue, not a voluntary change.
	changes := Apply(30, []*Job{j}, []Assignment{{Job: j, Node: 2, SpeedMHz: 900}}, costs, counter)
	if changes != 0 {
		t.Fatalf("changes = %d, want 0 (involuntary moves are not Figure-4 changes)", changes)
	}
	if j.Rescues != 1 || counter.Get(ActionRescue) != 1 {
		t.Fatalf("rescues = %d, counter = %d, want 1/1", j.Rescues, counter.Get(ActionRescue))
	}
	if j.Evicted {
		t.Fatal("Evicted still set after rescue")
	}
	if j.Status != Running || j.Node != 2 || j.Done != 3000 {
		t.Fatalf("after rescue: %+v", j)
	}
	wantBlock := 30 + costs.Resume(1000) + costs.Migrate(1000)
	if math.Abs(j.BlockedUntil-wantBlock) > 1e-9 {
		t.Fatalf("BlockedUntil = %v, want %v", j.BlockedUntil, wantBlock)
	}

	// A later voluntary suspend/resume goes back to the normal metric.
	Apply(40, []*Job{j}, nil, costs, counter)
	if j.Status != Suspended || j.Evicted {
		t.Fatalf("voluntary suspend: %+v", j)
	}
	changes = Apply(50, []*Job{j}, []Assignment{{Job: j, Node: 2, SpeedMHz: 900}}, costs, counter)
	if changes != 1 || counter.Get(ActionRescue) != 1 {
		t.Fatalf("voluntary resume: changes = %d, rescues = %d", changes, counter.Get(ActionRescue))
	}
}

// TestEvictNonRunningIsNoOp: pending/suspended/completed jobs hold no
// node, so eviction must not touch them.
func TestEvictNonRunningIsNoOp(t *testing.T) {
	j := NewJob(spec("idle", 4000, 1000, 1000, 0, 40))
	j.Evict()
	if j.Status != Pending || j.Evicted || j.Suspends != 0 {
		t.Fatalf("evicting a pending job changed it: %+v", j)
	}
}
