// Package rpf defines the utility range of relative performance
// functions (RPFs) and the ordered utility vectors the placement
// controller optimizes. The paper's two RPFs live with their workload
// models: the queueing-model RPF of web applications in internal/txn,
// the completion-time RPF of batch jobs in internal/batch.
//
// A relative performance function measures an application's performance
// relative to its goal: 0 exactly at the goal, positive when the goal is
// exceeded, negative when it is violated. The paper uses RPFs as the
// uniform currency that makes transactional response-time goals and batch
// completion-time goals comparable, so that "fairness" means equal
// relative distance from the goal.
package rpf

import (
	"fmt"
	"math"
	"sort"
)

// MinUtility is the sentinel for "infinitely violated" (the paper's
// u₁ = −∞ sampling point). Using a large finite value keeps arithmetic
// (sorting, interpolation) well defined.
const MinUtility = -1e9

// MaxUtility is the largest meaningful relative performance: completing
// work instantaneously relative to its goal window.
const MaxUtility = 1.0

// Clamp bounds u to the representable utility range.
func Clamp(u float64) float64 {
	switch {
	case math.IsNaN(u):
		return MinUtility
	case u < MinUtility:
		return MinUtility
	case u > MaxUtility:
		return MaxUtility
	default:
		return u
	}
}

// Vector is a multiset of per-application utilities compared with the
// paper's extended max-min criterion: sort ascending, then compare
// lexicographically. The first (worst) differing coordinate decides, so a
// placement is better when its least-performing application does better;
// ties cascade to the second-least, and so on.
type Vector []float64

// NewVector returns a sorted copy of us, clamped to the utility range.
func NewVector(us []float64) Vector {
	v := make(Vector, len(us))
	for i, u := range us {
		v[i] = Clamp(u)
	}
	sort.Float64s(v)
	return v
}

// Min returns the worst utility, or MaxUtility for an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		return MaxUtility
	}
	return v[0]
}

// Compare returns -1 if v is worse than other under the extended max-min
// order, +1 if better, and 0 if equal. Vectors of different lengths are
// compared on their common prefix; if equal there, the shorter vector is
// treated as padded with MaxUtility (a missing application cannot be made
// better).
func (v Vector) Compare(other Vector) int {
	n := len(v)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		switch {
		case v[i] < other[i]:
			return -1
		case v[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(v) < len(other):
		return 1
	case len(v) > len(other):
		return -1
	}
	return 0
}

// Less reports whether v is strictly worse than other.
func (v Vector) Less(other Vector) bool { return v.Compare(other) < 0 }

// ImprovesOn reports whether v is better than other by more than eps in
// the first differing coordinate.
func (v Vector) ImprovesOn(other Vector, eps float64) bool {
	n := len(v)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		d := v[i] - other[i]
		if d > eps {
			return true
		}
		if d < -eps {
			return false
		}
	}
	return len(v) > len(other)
}

// Quantize returns the vector with every coordinate snapped down to a
// multiple of step. The placement optimizer compares candidate vectors at
// this resolution — mirroring the paper's sampled-grid arithmetic, in
// which nearby configurations tie (and the tie breaks toward fewer
// placement changes). Unlike a fixed improvement threshold, quantization
// cannot starve a queued job: the utility of leaving it queued keeps
// decaying and eventually crosses a quantization boundary.
func (v Vector) Quantize(step float64) Vector {
	if step <= 0 {
		return v
	}
	out := make(Vector, len(v))
	for i, u := range v {
		out[i] = math.Floor(u/step) * step
	}
	return out
}

func (v Vector) String() string {
	return fmt.Sprintf("%.3f", []float64(v))
}
