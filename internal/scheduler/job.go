// Package scheduler manages the lifecycle of batch jobs, applies a
// cycle's assignments with their action costs, and implements the two
// baseline policies the paper compares the placement controller with:
// preemptive Earliest Deadline First and non-preemptive First-Come
// First-Served, both with first-fit placement. The APC policy, which
// decides through the placement controller, is control.APC.
package scheduler

import (
	"fmt"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/metrics"
)

// Status is a job's lifecycle state (the paper's runtime states).
type Status int

// Job lifecycle states.
const (
	// Pending: submitted, never started.
	Pending Status = iota + 1
	// Running: placed on a node with a positive CPU allocation.
	Running
	// Paused: placed (holding memory) but allocated no CPU.
	Paused
	// Suspended: removed from its node; memory released, progress kept.
	Suspended
	// Completed: all work finished.
	Completed
)

func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Suspended:
		return "suspended"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// NoNode marks an unplaced job.
const NoNode cluster.NodeID = -1

// Job is the runtime record of one submitted batch job.
type Job struct {
	// Spec is the immutable profile and SLA.
	Spec *batch.Spec
	// Status is the lifecycle state.
	Status Status
	// Done is α*: megacycles completed.
	Done float64
	// Node hosts the job (NoNode when not placed).
	Node cluster.NodeID
	// LastNode is where a suspended job last ran (NoNode if never).
	LastNode cluster.NodeID
	// SpeedMHz is the current allocation.
	SpeedMHz float64
	// Started reports whether the job ever ran.
	Started bool
	// CompletedAt is the completion instant (valid when Completed).
	CompletedAt float64
	// BlockedUntil delays progress while a placement action (boot,
	// resume, migration) is in flight.
	BlockedUntil float64
	// Evicted marks a job thrown off its node involuntarily (node
	// failure or removal). It stays set until the job is re-placed, at
	// which point the move is accounted as a rescue rather than a
	// voluntary placement change.
	Evicted bool

	// Action counters (the paper's Figure 4 accounting). Rescues counts
	// involuntary re-placements after an eviction; those moves are kept
	// out of the voluntary placement-change metric the paper plots.
	Starts, Suspends, Resumes, Migrations, Rescues int

	lastAdvance float64
}

// NewJob wraps a spec into a pending runtime record.
func NewJob(spec *batch.Spec) *Job {
	return &Job{
		Spec:        spec,
		Status:      Pending,
		Node:        NoNode,
		LastNode:    NoNode,
		lastAdvance: spec.Submit,
	}
}

// Remaining returns the outstanding work in megacycles.
func (j *Job) Remaining() float64 { return j.Spec.Remaining(j.Done) }

// Evict removes the job from a node that vanished underneath it (failure
// or removal): progress is preserved — as with suspend-to-shared-storage
// virtualization — and the job requeues as Suspended with the Evicted
// mark, so its eventual re-placement is counted as a rescue. Callers
// must AdvanceTo the eviction instant first so no progress is credited
// for time after the node died.
func (j *Job) Evict() {
	if j.Status != Running && j.Status != Paused {
		return
	}
	j.Suspends++
	j.LastNode = j.Node
	j.Node = NoNode
	j.SpeedMHz = 0
	j.Status = Suspended
	j.Evicted = true
}

// AdvanceTo progresses the job to virtual time now at its current speed,
// honoring the action-cost block and per-stage speed caps. If the job
// finishes, it transitions to Completed with the exact completion time,
// however far past it now is. This is the only job clock: both cycle
// hosts call it only when the planner reads the job (each cycle, at a
// node failure, and at the end of a simulated run), so a job completes
// at the same instant, bit for bit, on either host.
func (j *Job) AdvanceTo(now float64) {
	if now <= j.lastAdvance {
		return
	}
	start := j.lastAdvance
	j.lastAdvance = now
	if j.Status != Running || j.SpeedMHz <= 0 {
		return
	}
	if j.BlockedUntil > start {
		start = j.BlockedUntil
	}
	if start >= now {
		return
	}
	newDone, idle := j.Spec.Advance(j.Done, j.SpeedMHz, now-start)
	j.Done = newDone
	if j.Remaining() <= 1e-9 {
		j.Done = j.Spec.TotalWork()
		j.Status = Completed
		j.CompletedAt = now - idle
		j.SpeedMHz = 0
		j.LastNode = j.Node
		j.Node = NoNode
	}
}

// DistanceToGoal returns the paper's Figure 5 metric: deadline minus
// completion time (positive = early). Valid once Completed.
func (j *Job) DistanceToGoal() float64 { return j.Spec.Deadline - j.CompletedAt }

// MetGoal reports whether the job completed by its deadline.
func (j *Job) MetGoal() bool {
	return j.Status == Completed && j.CompletedAt <= j.Spec.Deadline
}

// NodeCapacity describes the resources one node offers to batch work.
type NodeCapacity struct {
	ID     cluster.NodeID
	CPUMHz float64
	MemMB  float64
}

// Assignment directs one job to run on a node at a speed for the next
// cycle. SpeedMHz of 0 parks the job as Paused (placed, no CPU).
type Assignment struct {
	Job      *Job
	Node     cluster.NodeID
	SpeedMHz float64
}

// Policy decides, each control cycle, which jobs run where and how fast.
// Jobs absent from the returned assignments are suspended (if running)
// or stay queued.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Schedule is called once per control cycle with the incomplete jobs,
	// the per-node capacities available to batch work and the cost model
	// the resulting placement actions are charged under.
	Schedule(now, cycle float64, jobs []*Job, nodes []NodeCapacity, costs cluster.CostModel) ([]Assignment, error)
}

// Action counter names used with metrics.Counter.
const (
	ActionStart   = "start"
	ActionSuspend = "suspend"
	ActionResume  = "resume"
	ActionMigrate = "migrate"
	// ActionRescue counts involuntary re-placements of evicted jobs, so
	// failure recovery is never conflated with the voluntary placement
	// changes of the paper's Figure 4.
	ActionRescue = "rescue"
)

// Apply transitions job states according to the assignments, charging
// action costs and counting placement changes. Jobs must already be
// advanced to now. It returns the number of disruptive placement changes
// (suspends + resumes + migrations — the paper's Figure 4 metric, which
// excludes first starts).
func Apply(now float64, jobs []*Job, assignments []Assignment, costs cluster.CostModel, counter *metrics.Counter) int {
	assigned := make(map[*Job]Assignment, len(assignments))
	for _, a := range assignments {
		assigned[a.Job] = a
	}
	changes := 0
	for _, j := range jobs {
		if j.Status == Completed {
			continue
		}
		a, ok := assigned[j]
		if !ok {
			// Not scheduled this cycle.
			if j.Status == Running || j.Status == Paused {
				j.Suspends++
				counter.Inc(ActionSuspend, 1)
				changes++
				j.LastNode = j.Node
				j.Node = NoNode
				j.SpeedMHz = 0
				j.Status = Suspended
			}
			continue
		}
		footprint := j.Spec.MemoryAt(j.Done)
		switch j.Status {
		case Pending:
			if a.SpeedMHz <= 0 {
				// A zero-speed placement of a never-started job is a
				// no-op: it must not pay the boot cost or pollute the
				// Starts metric for work that did not run. Leave it
				// pending (and unplaced) instead of parking it.
				continue
			}
			j.Started = true
			j.Starts++
			counter.Inc(ActionStart, 1)
			j.BlockedUntil = now + costs.Boot()
		case Suspended:
			cost := costs.Resume(footprint)
			moved := a.Node != j.LastNode
			if moved {
				cost += costs.Migrate(footprint)
			}
			if j.Evicted {
				// Involuntary: the node vanished underneath the job.
				// Count the rescue on its own so failure recovery stays
				// distinct from the voluntary Figure-4 changes.
				j.Evicted = false
				j.Rescues++
				counter.Inc(ActionRescue, 1)
				j.Resumes++
				counter.Inc(ActionResume, 1)
				if moved {
					j.Migrations++
					counter.Inc(ActionMigrate, 1)
				}
			} else {
				j.Resumes++
				counter.Inc(ActionResume, 1)
				changes++
				if moved {
					j.Migrations++
					counter.Inc(ActionMigrate, 1)
					changes++
				}
			}
			j.BlockedUntil = now + cost
		case Running, Paused:
			if a.Node != j.Node {
				j.Migrations++
				counter.Inc(ActionMigrate, 1)
				changes++
				j.BlockedUntil = now + costs.Migrate(footprint)
			}
		}
		j.Node = a.Node
		j.SpeedMHz = a.SpeedMHz
		if a.SpeedMHz > 0 {
			j.Status = Running
		} else {
			j.Status = Paused
		}
	}
	return changes
}
