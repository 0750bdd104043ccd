// Package txn models transactional (web) applications: an open queueing
// performance model that predicts response time from allocated CPU power,
// and the relative performance function u(ω) = (τ − t(ω))/τ built on it.
//
// The paper inherits this model from the middleware it builds on
// (Pacifici et al., "Performance management for cluster-based web
// services"): each application is an open queueing system whose service
// rate is proportional to the CPU power allocated to its cluster. We use
// the M/M/1-style response time with a fixed latency floor,
//
//	t(ω) = t0 + c / (ω − λ·c)   for ω > λ·c,
//
// where λ is the request arrival rate, c the average per-request CPU
// demand (megacycles, i.e. MHz·s) estimated by the work profiler, and t0
// the CPU-independent part of the response time (network, I/O waits).
// Allocations beyond MaxPowerMHz do not reduce response time further —
// this reproduces the saturation the paper observes ("allocating CPU
// power in excess of 130,000 MHz will not further increase its
// satisfaction").
package txn

import (
	"errors"
	"fmt"
	"math"

	"dynplace/internal/rpf"
)

// App describes one transactional application and its SLA.
type App struct {
	// Name identifies the application.
	Name string
	// ArrivalRate is the request arrival rate λ (requests/second).
	ArrivalRate float64
	// DemandPerRequest is the average CPU consumed by one request, c, in
	// megacycles (MHz·seconds). Estimated online by the work profiler.
	DemandPerRequest float64
	// BaseLatency is t0: the response-time component CPU cannot reduce
	// (seconds).
	BaseLatency float64
	// GoalResponseTime is the SLA response-time target τ (seconds).
	GoalResponseTime float64
	// MaxPowerMHz is the largest useful aggregate allocation; beyond it
	// the response time stops improving. Zero means unbounded.
	MaxPowerMHz float64
	// MemoryMB is the load-independent memory footprint of one instance.
	MemoryMB float64
	// AntiCollocate lists application names this one must never share a
	// node with — a placement constraint carried with the app.
	AntiCollocate []string
	// GoalPercentile, when nonzero, interprets GoalResponseTime as a
	// percentile target instead of a mean: e.g. 95 means "the 95th
	// percentile of response time must stay below the goal". Under the
	// model's exponential sojourn assumption the p-th percentile of the
	// queueing delay is its mean scaled by ln(100/(100−p)). This is the
	// paper's "other performance objectives" extension. Valid range
	// (50, 100); zero selects the mean.
	GoalPercentile float64
}

// ErrBadApp reports an invalid application definition.
var ErrBadApp = errors.New("txn: invalid application")

// Quiesced reports whether the application currently has no demand at
// all (arrival rate zero). A quiesced app stays registered — ready to be
// revived by a later rate change — but needs no CPU: its utility sits at
// the achievable cap regardless of allocation, and its demand is zero,
// so the placement controller is free to hand its resources to other
// work without removing the app.
func (a *App) Quiesced() bool { return a.ArrivalRate == 0 }

// Validate checks the app definition for internal consistency.
func (a *App) Validate() error {
	switch {
	case a.ArrivalRate < 0:
		return fmt.Errorf("%w %q: arrival rate must be nonnegative", ErrBadApp, a.Name)
	case a.DemandPerRequest <= 0:
		return fmt.Errorf("%w %q: per-request demand must be positive", ErrBadApp, a.Name)
	case a.BaseLatency < 0:
		return fmt.Errorf("%w %q: base latency must be nonnegative", ErrBadApp, a.Name)
	case a.GoalResponseTime <= a.BaseLatency:
		return fmt.Errorf("%w %q: goal %vs unreachable with base latency %vs",
			ErrBadApp, a.Name, a.GoalResponseTime, a.BaseLatency)
	case a.MemoryMB < 0:
		return fmt.Errorf("%w %q: memory must be nonnegative", ErrBadApp, a.Name)
	case a.MaxPowerMHz < 0:
		return fmt.Errorf("%w %q: max power must be nonnegative", ErrBadApp, a.Name)
	case a.GoalPercentile != 0 && (a.GoalPercentile <= 50 || a.GoalPercentile >= 100):
		return fmt.Errorf("%w %q: goal percentile %v outside (50, 100)",
			ErrBadApp, a.Name, a.GoalPercentile)
	}
	return nil
}

// percentileFactor scales the mean queueing delay to the configured
// percentile: ln(100/(100−p)) for exponential sojourn times, 1 for the
// mean.
func (a *App) percentileFactor() float64 {
	if a.GoalPercentile == 0 {
		return 1
	}
	return math.Log(100 / (100 - a.GoalPercentile))
}

// saturationDemand is the CPU demand λ·c below which the queue is
// unstable.
func (a *App) saturationDemand() float64 {
	return a.ArrivalRate * a.DemandPerRequest
}

// ResponseTime predicts the response time under allocation omega MHz —
// the mean, or the configured percentile when GoalPercentile is set. It
// returns +Inf when the allocation cannot sustain the arrival rate.
func (a *App) ResponseTime(omega float64) float64 {
	if a.Quiesced() {
		// No arrivals: no queueing, whatever the allocation.
		return a.BaseLatency
	}
	if a.MaxPowerMHz > 0 && omega > a.MaxPowerMHz {
		omega = a.MaxPowerMHz
	}
	lc := a.saturationDemand()
	if omega <= lc {
		return math.Inf(1)
	}
	return a.BaseLatency + a.percentileFactor()*a.DemandPerRequest/(omega-lc)
}

// Utility returns the relative performance for allocation omega:
// u = (τ − t(ω)) / τ, clamped to the representable range. An unstable
// allocation yields rpf.MinUtility.
func (a *App) Utility(omega float64) float64 {
	t := a.ResponseTime(omega)
	if math.IsInf(t, 1) {
		return rpf.MinUtility
	}
	return rpf.Clamp((a.GoalResponseTime - t) / a.GoalResponseTime)
}

// Demand inverts Utility: the smallest allocation achieving relative
// performance u. Levels above UtilityCap return MaxDemand.
func (a *App) Demand(u float64) float64 {
	if a.Quiesced() {
		return 0
	}
	cap := a.UtilityCap()
	if u >= cap {
		return a.MaxDemand()
	}
	// u = (τ − t)/τ  →  t = τ(1−u);  t = t0 + k·c/(ω−λc)  →
	// ω = λc + k·c/(t − t0), where k is the percentile factor.
	t := a.GoalResponseTime * (1 - u)
	if t <= a.BaseLatency {
		return a.MaxDemand()
	}
	omega := a.saturationDemand() + a.percentileFactor()*a.DemandPerRequest/(t-a.BaseLatency)
	if a.MaxPowerMHz > 0 && omega > a.MaxPowerMHz {
		return a.MaxPowerMHz
	}
	return omega
}

// UtilityCap returns the maximum achievable relative performance.
func (a *App) UtilityCap() float64 {
	if a.MaxPowerMHz > 0 {
		return a.Utility(a.MaxPowerMHz)
	}
	// Unbounded allocation drives t → t0.
	return rpf.Clamp((a.GoalResponseTime - a.BaseLatency) / a.GoalResponseTime)
}

// MaxDemand returns the largest useful allocation. For unbounded apps it
// returns the allocation achieving 99.9% of the utility cap, keeping the
// solver's search space finite.
func (a *App) MaxDemand() float64 {
	if a.Quiesced() {
		return 0
	}
	if a.MaxPowerMHz > 0 {
		return a.MaxPowerMHz
	}
	nearCap := a.UtilityCap() - 1e-3
	t := a.GoalResponseTime * (1 - nearCap)
	return a.saturationDemand() + a.percentileFactor()*a.DemandPerRequest/(t-a.BaseLatency)
}
