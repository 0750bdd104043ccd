package batch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dynplace/internal/rpf"
)

// State pairs a job spec with its progress for hypothetical evaluation.
type State struct {
	Spec *Spec
	// Done is α*: megacycles completed so far.
	Done float64
	// Delay postpones the job's earliest possible (re)start beyond the
	// evaluation time: placement-action costs (boot, suspend+resume)
	// that must elapse before the job can execute again.
	Delay float64
}

// effectiveNow returns the earliest time the job can run.
func (s State) effectiveNow(now float64) float64 {
	if s.Delay > 0 {
		return now + s.Delay
	}
	return now
}

// Prediction is the hypothetical outcome for one job under a given
// aggregate allocation.
type Prediction struct {
	// Utility is the predicted relative performance at completion.
	Utility float64
	// SpeedMHz is the average speed the fluid model assigns the job.
	SpeedMHz float64
}

// defaultLevels is the default sampling grid for the W and V matrices:
// the paper's u₁ = −∞ (a zero-demand sentinel) followed by levels up to
// u_R = 1. R is small, matching the paper.
var defaultLevels = [...]float64{rpf.MinUtility, -8, -4, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1}

// DefaultLevels returns a copy of the default sampling grid.
func DefaultLevels() []float64 {
	return append([]float64(nil), defaultLevels[:]...)
}

// UniformLevels returns a grid of r levels spanning [lo, 1] after the
// −∞ sentinel. Used by the grid-resolution ablation.
func UniformLevels(r int, lo float64) []float64 {
	if r < 2 {
		r = 2
	}
	levels := make([]float64, 0, r+1)
	levels = append(levels, rpf.MinUtility)
	step := (1 - lo) / float64(r-1)
	for i := 0; i < r; i++ {
		levels = append(levels, lo+float64(i)*step)
	}
	return levels
}

// Hypothetical computes the hypothetical relative performance function of
// Section 4.2 for a set of jobs at a common evaluation time.
//
// Two evaluation modes are provided:
//
//   - Predict implements the paper's sampled-matrix scheme: required
//     speeds are tabulated in W (equation (4)) and achievable levels in V
//     (equation (5)); the per-job speed for an aggregate allocation ω_g is
//     linearly interpolated between the bracketing rows (equation (6)) and
//     the per-job utility derived from the interpolated speed.
//   - PredictExact solves Σ_m ω_m(u) = ω_g directly by bisection, the
//     reference the sampled scheme approximates.
//
// A Hypothetical is reusable: Reset re-aims it at another job set,
// keeping its storage, so a caller that scores thousands of candidate
// placements per cycle holds one and allocates nothing once it has grown
// to the largest job set seen. The zero value is ready for Reset.
type Hypothetical struct {
	jobs   []State
	consts []Consts // per job, taken at its earliest possible start
	levels []float64
	// w[i*len(jobs)+m], v[...]: required speed and achievable level of
	// job m at grid level i.
	w, v []float64
	// rowSum[i] = Σ_m w[i][m], summed in job order.
	rowSum []float64
}

// ErrNoLevels reports an empty sampling grid.
var ErrNoLevels = errors.New("batch: sampling grid must contain at least two levels")

// NewHypothetical builds the W and V matrices for the given jobs at time
// now. Jobs with no remaining work are skipped (they consume nothing).
// levels must be strictly increasing; nil selects DefaultLevels.
func NewHypothetical(now float64, jobs []State, levels []float64) (*Hypothetical, error) {
	h := new(Hypothetical)
	if err := h.Reset(now, jobs, levels); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset rebuilds the matrices for another job set, exactly as
// NewHypothetical would, reusing h's storage. Slices previously returned
// by Jobs are invalidated. After an error h holds no jobs.
func (h *Hypothetical) Reset(now float64, jobs []State, levels []float64) error {
	h.jobs, h.consts = h.jobs[:0], h.consts[:0]
	if levels == nil {
		levels = defaultLevels[:]
	}
	if len(levels) < 2 {
		return ErrNoLevels
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			return fmt.Errorf("batch: sampling levels not increasing at %d", i)
		}
	}
	h.levels = append(h.levels[:0], levels...)
	for _, j := range jobs {
		if j.Spec == nil {
			h.jobs, h.consts = h.jobs[:0], h.consts[:0]
			return errors.New("batch: nil job spec")
		}
		if c := j.Spec.ConstsAt(j.Done, j.effectiveNow(now)); c.Remaining > 0 {
			h.jobs = append(h.jobs, j)
			h.consts = append(h.consts, c)
		}
	}
	n := len(h.jobs)
	// Resized, not cleared: every cell is written below.
	h.w = slices.Grow(h.w[:0], len(levels)*n)[:len(levels)*n]
	h.v = slices.Grow(h.v[:0], len(levels)*n)[:len(levels)*n]
	h.rowSum = slices.Grow(h.rowSum[:0], len(levels))[:len(levels)]
	for m := range h.consts {
		c := &h.consts[m]
		capSpeed, _ := c.RequiredSpeed(c.UtilityCap)
		for i, u := range h.levels {
			if u < c.UtilityCap {
				h.w[i*n+m], _ = c.RequiredSpeed(u)
				h.v[i*n+m] = u
			} else {
				h.w[i*n+m] = capSpeed
				h.v[i*n+m] = c.UtilityCap
			}
		}
	}
	for i := range h.rowSum {
		var sum float64
		for _, s := range h.w[i*n : (i+1)*n] {
			sum += s
		}
		h.rowSum[i] = sum
	}
	return nil
}

// Jobs returns the active jobs included in the matrices, valid until the
// next Reset.
func (h *Hypothetical) Jobs() []State { return h.jobs }

// AggregateDemandAt returns Σ_m ω_m(min(u, u^max_m)): the aggregate speed
// that brings every job to level u or to its cap, computed exactly from
// the jobs' constants rather than read off the grid.
func (h *Hypothetical) AggregateDemandAt(u float64) float64 {
	var total float64
	for m := range h.consts {
		c := &h.consts[m]
		speed, _ := c.RequiredSpeed(math.Min(u, c.UtilityCap))
		total += speed
	}
	return total
}

// MaxAggregateDemand returns the allocation at which every job reaches
// its achievable cap: Σ_m W[R][m].
func (h *Hypothetical) MaxAggregateDemand() float64 {
	if len(h.rowSum) == 0 {
		return 0
	}
	return h.rowSum[len(h.rowSum)-1]
}

// Predict evaluates the sampled hypothetical function for an aggregate
// allocation of omegaG MHz, returning one prediction per active job (in
// the order of Jobs()).
func (h *Hypothetical) Predict(omegaG float64) []Prediction {
	return h.AppendPredict(make([]Prediction, 0, len(h.jobs)), omegaG)
}

// AppendPredict is Predict into caller storage: it appends the
// predictions to dst and returns the extended slice.
func (h *Hypothetical) AppendPredict(dst []Prediction, omegaG float64) []Prediction {
	n := len(h.jobs)
	if n == 0 {
		return dst
	}
	last := len(h.levels) - 1
	// Above the top row everyone is at their cap.
	if omegaG >= h.rowSum[last] {
		for m := 0; m < n; m++ {
			dst = append(dst, Prediction{Utility: h.v[last*n+m], SpeedMHz: h.w[last*n+m]})
		}
		return dst
	}
	// Find bracket rows k, k+1 with rowSum[k] ≤ ω_g ≤ rowSum[k+1]
	// (equation (6)). rowSum is nondecreasing.
	k := 0
	for i := 0; i < last; i++ {
		if h.rowSum[i] <= omegaG {
			k = i
		} else {
			break
		}
	}
	lo, hi := h.rowSum[k], h.rowSum[k+1]
	f := 0.0
	if hi > lo {
		f = (omegaG - lo) / (hi - lo)
	}
	for m := range h.consts {
		wk := h.w[k*n+m]
		speed := wk + f*(h.w[(k+1)*n+m]-wk)
		// Derive the utility from the interpolated speed (the
		// approximation of [24]): invert ω_m(u) exactly.
		dst = append(dst, Prediction{Utility: h.consts[m].UtilityAtSpeed(speed), SpeedMHz: speed})
	}
	return dst
}

// PredictExact solves for the common level u* with Σ_m ω_m(min(u*,
// u^max_m)) = ω_g by bisection and returns per-job predictions. It is the
// reference implementation the sampled grid approximates.
func (h *Hypothetical) PredictExact(omegaG float64) []Prediction {
	return h.AppendPredictExact(make([]Prediction, 0, len(h.jobs)), omegaG)
}

// AppendPredictExact is PredictExact into caller storage.
func (h *Hypothetical) AppendPredictExact(dst []Prediction, omegaG float64) []Prediction {
	if len(h.jobs) == 0 {
		return dst
	}
	level := 1.0 // at or above every cap: each job gets its own u^max
	if omegaG < h.MaxAggregateDemand() {
		lo, hi := rpf.MinUtility, 1.0
		for iter := 0; iter < 100 && hi-lo > 1e-9*math.Max(1, math.Abs(hi)+math.Abs(lo)); iter++ {
			mid := lo + (hi-lo)/2
			if h.AggregateDemandAt(mid) <= omegaG {
				lo = mid
			} else {
				hi = mid
			}
		}
		level = lo
	}
	for m := range h.consts {
		c := &h.consts[m]
		u := math.Min(level, c.UtilityCap)
		speed, _ := c.RequiredSpeed(u)
		dst = append(dst, Prediction{Utility: u, SpeedMHz: speed})
	}
	return dst
}

// Mean returns the average predicted utility of a prediction set — the
// series plotted in the paper's Figure 2.
func Mean(preds []Prediction) float64 {
	if len(preds) == 0 {
		return 0
	}
	var sum float64
	for _, p := range preds {
		sum += p.Utility
	}
	return sum / float64(len(preds))
}
