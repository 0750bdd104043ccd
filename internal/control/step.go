package control

import (
	"fmt"
	"slices"

	"dynplace/internal/batch"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
)

// This file holds the job ledger and the observe and act halves of the
// control step; the decide half is PlanTraced (or, in the Runner's
// policy mode, scheduler.Policy.Schedule).

// Submit enters a job into the ledger. It joins the live set at the
// first Advance at or after its submit time. A name submitted before,
// even by a job since retired, is rejected, so a job name identifies
// one job for the planner's lifetime.
func (p *Planner) Submit(spec *batch.Spec) (*scheduler.Job, error) {
	if p.jobNames[spec.Name] {
		return nil, fmt.Errorf("%w: duplicate job %q", ErrBadConfig, spec.Name)
	}
	p.jobNames[spec.Name] = true
	j := scheduler.NewJob(spec)
	p.jobs = append(p.jobs, j)
	return j, nil
}

// HasJob reports whether a job of that name was ever submitted.
func (p *Planner) HasJob(name string) bool { return p.jobNames[name] }

// JobNames returns every job name ever submitted, sorted.
func (p *Planner) JobNames() []string {
	names := make([]string, 0, len(p.jobNames))
	for name := range p.jobNames {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// RestoreJobNames marks recovered names as submitted, so a restarted
// controller keeps rejecting the names of jobs that retired before the
// restart.
func (p *Planner) RestoreJobNames(names []string) {
	for _, name := range names {
		p.jobNames[name] = true
	}
}

// Jobs returns the ledger — every submitted job not yet retired — in
// submission order. The slice is a copy; the jobs are shared.
func (p *Planner) Jobs() []*scheduler.Job {
	return append([]*scheduler.Job(nil), p.jobs...)
}

// RestoreJobs replaces the ledger with recovered jobs and marks their
// names as submitted.
func (p *Planner) RestoreJobs(jobs []*scheduler.Job) {
	p.jobs = append([]*scheduler.Job(nil), jobs...)
	for _, j := range jobs {
		p.jobNames[j.Spec.Name] = true
	}
}

// Actions returns the lifetime placement-action counters that Apply and
// FailNode charge.
func (p *Planner) Actions() *metrics.Counter { return p.actions }

// ScheduleLoad replaces the named application's pending load phases.
// Advance applies each phase once its start has passed and then drops
// it; phases due together apply in list order, so the last one listed
// wins. A nil schedule cancels what is pending. It reports whether the
// app is registered.
func (p *Planner) ScheduleLoad(name string, phases []LoadPhase) bool {
	i := p.appIndex(name)
	if i < 0 {
		return false
	}
	p.phases[i] = append([]LoadPhase(nil), phases...)
	return true
}

// LoadSchedule returns the named application's pending load phases.
func (p *Planner) LoadSchedule(name string) []LoadPhase {
	if i := p.appIndex(name); i >= 0 {
		return append([]LoadPhase(nil), p.phases[i]...)
	}
	return nil
}

// Advance is the observe half of a control step at time now. It applies
// the load phases that have begun, advances every submitted job to now,
// retires the completed ones from the ledger, and returns the live set
// (submitted, incomplete jobs, in submission order) together with the
// jobs it retired.
func (p *Planner) Advance(now float64) (live, retired []*scheduler.Job) {
	for i, w := range p.webApps {
		future := p.phases[i][:0]
		for _, ph := range p.phases[i] {
			switch {
			case ph.Start > now:
				future = append(future, ph)
			case validRate(ph.ArrivalRate):
				// Rate 0 quiesces the app rather than being skipped — a
				// scheduled ramp-to-idle must actually take effect.
				w.ArrivalRate = ph.ArrivalRate
			}
		}
		p.phases[i] = future
	}
	live = make([]*scheduler.Job, 0, len(p.jobs))
	keep := p.jobs[:0]
	for _, j := range p.jobs {
		if j.Spec.Submit <= now {
			j.AdvanceTo(now)
		}
		switch {
		case j.Status == scheduler.Completed:
			retired = append(retired, j)
			continue
		case j.Spec.Submit <= now:
			live = append(live, j)
		}
		keep = append(keep, j)
	}
	clear(p.jobs[len(keep):])
	p.jobs = keep
	return live, retired
}

// Apply is the act half of a control step: it applies the cycle's batch
// assignments to the live jobs, charging action costs and the lifetime
// action counters, and returns the disruptive placement changes (the
// paper's Figure 4 metric) and how many live jobs are left queued
// (pending or suspended).
func (p *Planner) Apply(now float64, live []*scheduler.Job, assignments []scheduler.Assignment) (changed, queued int) {
	changed = scheduler.Apply(now, live, assignments, p.costs, p.actions)
	for _, j := range live {
		if j.Status == scheduler.Pending || j.Status == scheduler.Suspended {
			queued++
		}
	}
	return changed, queued
}

// EvictPlaced requeues every placed job as evicted, progress intact,
// counting each as a suspend: what executed the jobs did not survive a
// controller restart, so the next cycle re-places them as rescues. It
// returns how many it evicted.
func (p *Planner) EvictPlaced() int {
	n := 0
	for _, j := range p.jobs {
		if j.Node != scheduler.NoNode {
			j.Evict()
			n++
		}
	}
	if n > 0 {
		p.actions.Inc(scheduler.ActionSuspend, n)
	}
	return n
}
