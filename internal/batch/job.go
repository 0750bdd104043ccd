// Package batch models long-running (batch) jobs: multi-stage resource
// usage profiles, completion-time goals, stage-aware progress, and — the
// paper's original contribution — the hypothetical relative performance
// function that predicts, at every control cycle, the relative
// performance each job in the system (running or queued) will achieve
// under a given aggregate CPU allocation.
package batch

import (
	"errors"
	"fmt"
	"math"

	"dynplace/internal/rpf"
)

// Stage is one phase of a job's resource usage profile, as supplied by
// the job workload profiler at submission time.
type Stage struct {
	// WorkMcycles is α: the CPU cycles consumed in this stage, in
	// megacycles (1 MHz · 1 s).
	WorkMcycles float64
	// MaxSpeedMHz is ω^max: the fastest the stage can execute.
	MaxSpeedMHz float64
	// MinSpeedMHz is ω^min: the slowest the stage may run whenever it
	// runs (0 = may be paused at any speed).
	MinSpeedMHz float64
	// MemoryMB is γ: the memory footprint while in this stage.
	MemoryMB float64
}

// Spec is the immutable description of a job: its profile and SLA.
type Spec struct {
	// Name identifies the job.
	Name string
	// Stages is the resource usage profile, executed in order.
	Stages []Stage
	// Submit is the submission time (seconds of virtual time).
	Submit float64
	// DesiredStart is τ^start, at or after Submit.
	DesiredStart float64
	// Deadline is τ, the completion time goal.
	Deadline float64
	// AntiCollocate lists application names this job must never share a
	// node with — a placement constraint carried with the job.
	AntiCollocate []string
}

// ErrBadSpec reports an invalid job definition.
var ErrBadSpec = errors.New("batch: invalid job spec")

// Validate checks the spec for internal consistency.
func (s *Spec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("%w %q: no stages", ErrBadSpec, s.Name)
	}
	for i, st := range s.Stages {
		switch {
		case st.WorkMcycles <= 0:
			return fmt.Errorf("%w %q: stage %d work must be positive", ErrBadSpec, s.Name, i)
		case st.MaxSpeedMHz <= 0:
			return fmt.Errorf("%w %q: stage %d max speed must be positive", ErrBadSpec, s.Name, i)
		case st.MinSpeedMHz < 0 || st.MinSpeedMHz > st.MaxSpeedMHz:
			return fmt.Errorf("%w %q: stage %d min speed %v outside [0, %v]",
				ErrBadSpec, s.Name, i, st.MinSpeedMHz, st.MaxSpeedMHz)
		case st.MemoryMB < 0:
			return fmt.Errorf("%w %q: stage %d memory must be nonnegative", ErrBadSpec, s.Name, i)
		}
	}
	if s.DesiredStart < s.Submit {
		return fmt.Errorf("%w %q: desired start %v before submit %v", ErrBadSpec, s.Name, s.DesiredStart, s.Submit)
	}
	if s.Deadline <= s.DesiredStart {
		return fmt.Errorf("%w %q: deadline %v not after desired start %v", ErrBadSpec, s.Name, s.Deadline, s.DesiredStart)
	}
	return nil
}

// SingleStage builds a one-stage spec, the common case in the paper's
// experiments.
func SingleStage(name string, workMcycles, maxSpeedMHz, memoryMB, submit, deadline float64) *Spec {
	return &Spec{
		Name: name,
		Stages: []Stage{{
			WorkMcycles: workMcycles,
			MaxSpeedMHz: maxSpeedMHz,
			MemoryMB:    memoryMB,
		}},
		Submit:       submit,
		DesiredStart: submit,
		Deadline:     deadline,
	}
}

// TotalWork returns Σ α over all stages.
func (s *Spec) TotalWork() float64 {
	var sum float64
	for _, st := range s.Stages {
		sum += st.WorkMcycles
	}
	return sum
}

// MinExecTime returns the execution time running every stage flat-out.
func (s *Spec) MinExecTime() float64 {
	var sum float64
	for _, st := range s.Stages {
		sum += st.WorkMcycles / st.MaxSpeedMHz
	}
	return sum
}

// RelativeGoal returns τ − τ^start, the window the RPF normalizes by.
func (s *Spec) RelativeGoal() float64 { return s.Deadline - s.DesiredStart }

// GoalFactor returns the paper's relative goal factor: the relative goal
// divided by the minimum execution time.
func (s *Spec) GoalFactor() float64 { return s.RelativeGoal() / s.MinExecTime() }

// StageAt returns the index of the stage in progress after done
// megacycles, and the work remaining within it. A fully-complete job
// reports the last stage with zero remaining.
func (s *Spec) StageAt(done float64) (idx int, remainingInStage float64) {
	var cum float64
	for i, st := range s.Stages {
		cum += st.WorkMcycles
		if done < cum {
			return i, cum - done
		}
	}
	return len(s.Stages) - 1, 0
}

// MemoryAt returns the memory footprint of the stage in progress.
func (s *Spec) MemoryAt(done float64) float64 {
	i, _ := s.StageAt(done)
	return s.Stages[i].MemoryMB
}

// MaxMemory returns the largest stage footprint; placement uses it as the
// conservative reservation for multi-stage jobs.
func (s *Spec) MaxMemory() float64 {
	var mm float64
	for _, st := range s.Stages {
		if st.MemoryMB > mm {
			mm = st.MemoryMB
		}
	}
	return mm
}

// MaxSpeedAt returns the speed cap of the stage in progress.
func (s *Spec) MaxSpeedAt(done float64) float64 {
	i, _ := s.StageAt(done)
	return s.Stages[i].MaxSpeedMHz
}

// MinSpeedAt returns the speed floor of the stage in progress.
func (s *Spec) MinSpeedAt(done float64) float64 {
	i, _ := s.StageAt(done)
	return s.Stages[i].MinSpeedMHz
}

// Remaining returns the outstanding work after done megacycles.
func (s *Spec) Remaining(done float64) float64 {
	rem := s.TotalWork() - done
	if rem < 0 {
		return 0
	}
	return rem
}

// Consts are the quantities equations (2)–(5) need of one job at one
// (done, now) pair. Within a control cycle a job's progress and the
// evaluation time are fixed, so a caller that evaluates the equations
// many times (every bisection probe, every row of the hypothetical
// matrices) takes the constants once and then does arithmetic only: no
// method below walks the stage list.
type Consts struct {
	// Now is the evaluation time the constants were taken at.
	Now float64
	// Remaining is the outstanding work in megacycles (0 when finished).
	Remaining float64
	// MinTime is the shortest time to finish Remaining, honoring
	// per-stage speed caps.
	MinTime float64
	// Sustainable is the average speed achieved running flat out from
	// here to completion, Remaining/MinTime: the cap used when clamping
	// required speeds (equations (4)–(5)). Zero when finished.
	Sustainable float64
	// UtilityCap is u^max: the best relative performance reachable from
	// this state, running flat out starting at Now.
	UtilityCap float64
	// Deadline and RelativeGoal are τ and τ − τ^start.
	Deadline, RelativeGoal float64
	// MaxSpeed, MinSpeed and Memory describe the stage in progress (the
	// last stage for a finished job).
	MaxSpeed, MinSpeed, Memory float64
}

// ConstsAt takes the job's constants after done megacycles at time now,
// in a single walk over the profile.
func (s *Spec) ConstsAt(done, now float64) Consts {
	c := Consts{Now: now, Deadline: s.Deadline, RelativeGoal: s.RelativeGoal()}
	if len(s.Stages) == 0 {
		c.UtilityCap = completionUtility(c.Deadline, c.RelativeGoal, now)
		return c
	}
	// cum ends as TotalWork; idx is StageAt's stage; minTime sums, in
	// stage order, what is left of that stage and all of the later ones.
	var cum, minTime float64
	idx := -1
	for i, st := range s.Stages {
		cum += st.WorkMcycles
		switch {
		case idx >= 0:
			minTime += st.WorkMcycles / st.MaxSpeedMHz
		case done < cum:
			idx = i
			minTime = (cum - done) / st.MaxSpeedMHz
		}
	}
	if idx < 0 {
		idx = len(s.Stages) - 1
	}
	st := &s.Stages[idx]
	c.MaxSpeed, c.MinSpeed, c.Memory = st.MaxSpeedMHz, st.MinSpeedMHz, st.MemoryMB
	if rem := cum - done; rem > 0 {
		c.Remaining = rem
		c.MinTime = minTime
		c.Sustainable = rem / minTime
		now += minTime
	}
	c.UtilityCap = completionUtility(c.Deadline, c.RelativeGoal, now)
	return c
}

// RequiredSpeed returns ω_m(u): the average speed, sustained from Now,
// needed to finish with relative performance u — equation (3) — clamped
// to the job's sustainable maximum (equation (4)). The boolean reports
// whether the level is achievable (false means the clamp applied).
func (c *Consts) RequiredSpeed(u float64) (float64, bool) {
	if c.Remaining == 0 || u <= rpf.MinUtility {
		return 0, true
	}
	t := c.Deadline - u*c.RelativeGoal
	if t <= c.Now {
		return c.Sustainable, false
	}
	omega := c.Remaining / (t - c.Now)
	if omega >= c.Sustainable {
		return c.Sustainable, u <= c.UtilityCap+1e-12
	}
	return omega, true
}

// UtilityAtSpeed returns the relative performance achieved by sustaining
// the average speed omega from Now to completion (capped by the
// sustainable speed), i.e. the inverse of RequiredSpeed.
func (c *Consts) UtilityAtSpeed(omega float64) float64 {
	switch {
	case c.Remaining == 0:
		return c.UtilityCap
	case omega <= 0:
		return rpf.MinUtility
	case omega >= c.Sustainable:
		return c.UtilityCap
	}
	return completionUtility(c.Deadline, c.RelativeGoal, c.Now+c.Remaining/omega)
}

// MinRemainingTime returns the shortest time to finish the outstanding
// work, honoring per-stage speed caps.
func (s *Spec) MinRemainingTime(done float64) float64 {
	return s.ConstsAt(done, 0).MinTime
}

// Advance simulates running the job at allocated speed for dt seconds
// starting from done megacycles, honoring per-stage speed caps, and
// returns the new done value and the unused time (nonzero when the job
// finishes before dt elapses).
func (s *Spec) Advance(done, speed, dt float64) (newDone, idleTime float64) {
	if speed <= 0 || dt <= 0 {
		return done, 0
	}
	remTime := dt
	for remTime > 1e-12 {
		idx, remIn := s.StageAt(done)
		if remIn == 0 {
			// Job complete.
			return done, remTime
		}
		eff := math.Min(speed, s.Stages[idx].MaxSpeedMHz)
		if eff <= 0 {
			return done, 0
		}
		need := remIn / eff
		if need > remTime {
			return done + eff*remTime, 0
		}
		done += remIn
		remTime -= need
	}
	return done, 0
}

// TimeToFinish returns the time needed to complete the outstanding work
// running at the given allocated speed (clamped per stage). It returns
// +Inf when the speed is nonpositive and work remains.
func (s *Spec) TimeToFinish(done, speed float64) float64 {
	if s.Remaining(done) == 0 {
		return 0
	}
	if speed <= 0 {
		return math.Inf(1)
	}
	var t float64
	idx, remIn := s.StageAt(done)
	t += remIn / math.Min(speed, s.Stages[idx].MaxSpeedMHz)
	for i := idx + 1; i < len(s.Stages); i++ {
		t += s.Stages[i].WorkMcycles / math.Min(speed, s.Stages[i].MaxSpeedMHz)
	}
	return t
}

// completionUtility is equation (2): u = (τ − t)/(τ − τ^start).
func completionUtility(deadline, relativeGoal, t float64) float64 {
	return rpf.Clamp((deadline - t) / relativeGoal)
}

// UtilityAtCompletion returns the job's relative performance if it
// completes at time t, equation (2).
func (s *Spec) UtilityAtCompletion(t float64) float64 {
	return completionUtility(s.Deadline, s.RelativeGoal(), t)
}

// CompletionForUtility inverts UtilityAtCompletion.
func (s *Spec) CompletionForUtility(u float64) float64 {
	return s.Deadline - u*s.RelativeGoal()
}

// UtilityCap, RequiredSpeed and UtilityAtSpeed are Consts' methods for
// callers that evaluate them once: see there.

// UtilityCap returns u^max at (done, now).
func (s *Spec) UtilityCap(done, now float64) float64 {
	return s.ConstsAt(done, now).UtilityCap
}

// RequiredSpeed returns ω_m(u) at (done, now) and whether u is achievable.
func (s *Spec) RequiredSpeed(u, done, now float64) (float64, bool) {
	c := s.ConstsAt(done, now)
	return c.RequiredSpeed(u)
}

// UtilityAtSpeed returns the relative performance of sustaining omega
// from (done, now) to completion.
func (s *Spec) UtilityAtSpeed(omega, done, now float64) float64 {
	c := s.ConstsAt(done, now)
	return c.UtilityAtSpeed(omega)
}
