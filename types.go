package dynplace

import (
	"errors"
	"fmt"
	"math"

	"dynplace/internal/batch"
	"dynplace/internal/scheduler"
	"dynplace/internal/txn"
)

// Stage is one phase of a multi-stage job profile.
type Stage struct {
	// WorkMcycles is the CPU work of the stage in megacycles (MHz·s).
	WorkMcycles float64 `json:"workMcycles"`
	// MaxSpeedMHz caps how fast the stage can execute.
	MaxSpeedMHz float64 `json:"maxSpeedMHz"`
	// MinSpeedMHz is the slowest the stage may run whenever it runs
	// (0 = no floor).
	MinSpeedMHz float64 `json:"minSpeedMHz,omitempty"`
	// MemoryMB is the stage's memory footprint.
	MemoryMB float64 `json:"memoryMB"`
}

// JobSpec describes a batch job and its completion-time goal. For
// single-stage jobs fill WorkMcycles/MaxSpeedMHz/MemoryMB; multi-stage
// profiles use Stages instead.
type JobSpec struct {
	// Name identifies the job; it must be unique within a System.
	Name string `json:"name"`

	// WorkMcycles, MaxSpeedMHz and MemoryMB describe a single-stage job.
	// Ignored when Stages is set.
	WorkMcycles float64 `json:"workMcycles,omitempty"`
	MaxSpeedMHz float64 `json:"maxSpeedMHz,omitempty"`
	MemoryMB    float64 `json:"memoryMB,omitempty"`

	// Stages is the multi-stage resource usage profile (optional).
	Stages []Stage `json:"stages,omitempty"`

	// Submit is the submission time in seconds of virtual time.
	Submit float64 `json:"submit,omitempty"`
	// DesiredStart is the earliest desired start (default: Submit, or 0
	// for a job submitted before time 0).
	DesiredStart float64 `json:"desiredStart,omitempty"`
	// Deadline is the completion-time goal τ.
	Deadline float64 `json:"deadline"`
	// AntiCollocate lists application names (jobs or web apps) this job
	// must never share a node with.
	AntiCollocate []string `json:"antiCollocate,omitempty"`
}

// ErrBadSpec reports an invalid job or web application specification.
var ErrBadSpec = errors.New("dynplace: invalid specification")

// toInternal converts and validates the spec.
func (j JobSpec) toInternal() (*batch.Spec, error) {
	spec := &batch.Spec{
		Name:          j.Name,
		Submit:        j.Submit,
		DesiredStart:  j.DesiredStart,
		Deadline:      j.Deadline,
		AntiCollocate: append([]string(nil), j.AntiCollocate...),
	}
	// After a negative submit 0 stands as written, so that every compiled
	// job, however shifted, has a spec (JobSpecOf) that compiles to it.
	if spec.DesiredStart == 0 && j.Submit > 0 {
		spec.DesiredStart = j.Submit
	}
	if len(j.Stages) > 0 {
		spec.Stages = make([]batch.Stage, len(j.Stages))
		for i, s := range j.Stages {
			spec.Stages[i] = batch.Stage{
				WorkMcycles: s.WorkMcycles,
				MaxSpeedMHz: s.MaxSpeedMHz,
				MinSpeedMHz: s.MinSpeedMHz,
				MemoryMB:    s.MemoryMB,
			}
		}
	} else {
		spec.Stages = []batch.Stage{{
			WorkMcycles: j.WorkMcycles,
			MaxSpeedMHz: j.MaxSpeedMHz,
			MemoryMB:    j.MemoryMB,
		}}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return spec, nil
}

// WebAppSpec describes a transactional application and its response-time
// goal. The performance model is the paper's open queueing system: mean
// response time t(ω) = BaseLatency + DemandPerRequest/(ω − λ·c) under an
// aggregate CPU allocation of ω MHz.
type WebAppSpec struct {
	// Name identifies the application; unique within a System.
	Name string `json:"name"`
	// ArrivalRate is λ, requests per second.
	ArrivalRate float64 `json:"arrivalRate"`
	// DemandPerRequest is c, the average CPU demand of one request in
	// megacycles.
	DemandPerRequest float64 `json:"demandPerRequest"`
	// BaseLatency is the CPU-independent response-time floor in seconds.
	BaseLatency float64 `json:"baseLatency,omitempty"`
	// GoalResponseTime is the SLA target τ in seconds.
	GoalResponseTime float64 `json:"goalResponseTime"`
	// MaxPowerMHz caps the useful aggregate allocation (0 = unbounded).
	MaxPowerMHz float64 `json:"maxPowerMHz,omitempty"`
	// MemoryMB is the per-instance footprint.
	MemoryMB float64 `json:"memoryMB"`
	// LoadSchedule optionally varies the arrival rate over time: each
	// phase takes effect at its start time. Phases must be listed in
	// nondecreasing start order with finite, nonnegative rates. The
	// placement controller reacts at the next control cycle.
	LoadSchedule []LoadPhase `json:"loadSchedule,omitempty"`
	// AntiCollocate lists application names this one must never share a
	// node with.
	AntiCollocate []string `json:"antiCollocate,omitempty"`
	// GoalPercentile, when nonzero, makes GoalResponseTime a percentile
	// target (e.g. 95 = "95th percentile below the goal") instead of a
	// mean. Valid range (50, 100).
	GoalPercentile float64 `json:"goalPercentile,omitempty"`
}

// LoadPhase changes a web application's arrival rate at a point in time.
type LoadPhase struct {
	// Start is the phase's begin time (virtual seconds).
	Start float64 `json:"start"`
	// ArrivalRate is λ from Start onward (requests/second).
	ArrivalRate float64 `json:"arrivalRate"`
}

func (w WebAppSpec) toInternal() (*txn.App, error) {
	app := &txn.App{
		Name:             w.Name,
		ArrivalRate:      w.ArrivalRate,
		DemandPerRequest: w.DemandPerRequest,
		BaseLatency:      w.BaseLatency,
		GoalResponseTime: w.GoalResponseTime,
		MaxPowerMHz:      w.MaxPowerMHz,
		MemoryMB:         w.MemoryMB,
		AntiCollocate:    append([]string(nil), w.AntiCollocate...),
		GoalPercentile:   w.GoalPercentile,
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if !finiteRate(w.ArrivalRate) {
		return nil, fmt.Errorf("%w: web app %q: arrival rate must be finite", ErrBadSpec, w.Name)
	}
	prev := math.Inf(-1)
	for i, ph := range w.LoadSchedule {
		if !finiteRate(ph.ArrivalRate) {
			return nil, fmt.Errorf("%w: web app %q: load phase %d: arrival rate must be a finite nonnegative number",
				ErrBadSpec, w.Name, i)
		}
		if !(ph.Start >= prev) {
			return nil, fmt.Errorf("%w: web app %q: load phase %d starts at %v, before the phase listed ahead of it",
				ErrBadSpec, w.Name, i, ph.Start)
		}
		prev = ph.Start
	}
	return app, nil
}

func finiteRate(r float64) bool { return r >= 0 && !math.IsInf(r, 1) }

// JobResult reports one job's outcome.
type JobResult struct {
	// Name is the job's identifier.
	Name string `json:"name"`
	// Completed reports whether the job finished within the run.
	Completed bool `json:"completed"`
	// CompletedAt is the completion instant (valid when Completed).
	CompletedAt float64 `json:"completedAt"`
	// MetGoal reports completion at or before the deadline.
	MetGoal bool `json:"metGoal"`
	// DistanceToGoal is deadline − completion (positive = early). Zero
	// is meaningful (finished exactly on time), so no omitempty.
	DistanceToGoal float64 `json:"distanceToGoal"`
	// Utility is the relative performance at completion:
	// (deadline − completion) / (deadline − desired start).
	Utility float64 `json:"utility"`
	// Suspends, Resumes and Migrations count the placement actions the
	// job experienced. Rescues counts involuntary re-placements after a
	// node failure; rescues are excluded from the voluntary
	// placement-change metric.
	Suspends   int `json:"suspends"`
	Resumes    int `json:"resumes"`
	Migrations int `json:"migrations"`
	Rescues    int `json:"rescues"`
}

// Point is one (virtual time, value) sample of a recorded series.
type Point struct {
	// Time is the sample instant in seconds of virtual time.
	Time float64 `json:"time"`
	// Value is the sampled quantity.
	Value float64 `json:"value"`
}

// CompileJob validates spec and lowers it to the internal batch
// representation. It is the seam through which the live daemon
// (internal/daemon) shares spec validation and conversion with the
// simulator entry points; library users never need it.
func CompileJob(spec JobSpec) (*batch.Spec, error) { return spec.toInternal() }

// CompileWebApp validates spec and lowers it to the internal
// transactional model. See CompileJob.
func CompileWebApp(spec WebAppSpec) (*txn.App, error) { return spec.toInternal() }

// JobSpecOf is CompileJob's inverse: the public spec of a compiled job,
// with absolute times and the full stage profile. The daemon journals
// it; compiling the result yields an equal batch.Spec.
func JobSpecOf(s *batch.Spec) JobSpec {
	js := JobSpec{
		Name:          s.Name,
		Submit:        s.Submit,
		DesiredStart:  s.DesiredStart,
		Deadline:      s.Deadline,
		AntiCollocate: append([]string(nil), s.AntiCollocate...),
		Stages:        make([]Stage, len(s.Stages)),
	}
	for i, st := range s.Stages {
		js.Stages[i] = Stage{
			WorkMcycles: st.WorkMcycles,
			MaxSpeedMHz: st.MaxSpeedMHz,
			MinSpeedMHz: st.MinSpeedMHz,
			MemoryMB:    st.MemoryMB,
		}
	}
	return js
}

// JobResultOf reports a job's outcome as of its current state; the
// completion fields are set only once it has completed.
func JobResultOf(j *scheduler.Job) JobResult {
	r := JobResult{
		Name:       j.Spec.Name,
		Completed:  j.Status == scheduler.Completed,
		Suspends:   j.Suspends,
		Resumes:    j.Resumes,
		Migrations: j.Migrations,
		Rescues:    j.Rescues,
	}
	if r.Completed {
		r.CompletedAt = j.CompletedAt
		r.MetGoal = j.MetGoal()
		r.DistanceToGoal = j.DistanceToGoal()
		r.Utility = j.Spec.UtilityAtCompletion(j.CompletedAt)
	}
	return r
}

// WebAppSpecOf is CompileWebApp's inverse: the public spec of a
// compiled application at its current arrival rate. Load schedules are
// not part of the compiled model and are not reproduced.
func WebAppSpecOf(w *txn.App) WebAppSpec {
	return WebAppSpec{
		Name:             w.Name,
		ArrivalRate:      w.ArrivalRate,
		DemandPerRequest: w.DemandPerRequest,
		BaseLatency:      w.BaseLatency,
		GoalResponseTime: w.GoalResponseTime,
		MaxPowerMHz:      w.MaxPowerMHz,
		MemoryMB:         w.MemoryMB,
		AntiCollocate:    append([]string(nil), w.AntiCollocate...),
		GoalPercentile:   w.GoalPercentile,
	}
}
