package txn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dynplace/internal/rpf"
)

// experiment3App returns the transactional application parameterized for
// Experiment Three: maximum relative performance ≈0.65 at 130,000 MHz,
// ≈0.4 with a 6-node (93,600 MHz) partition.
func experiment3App() *App {
	return &App{
		Name:             "tx",
		ArrivalRate:      170,
		DemandPerRequest: 480,
		BaseLatency:      0.032,
		GoalResponseTime: 0.120,
		MaxPowerMHz:      130000,
		MemoryMB:         2000,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*App)
		wantOK bool
	}{
		{"valid", func(*App) {}, true},
		{"zero arrival quiesces", func(a *App) { a.ArrivalRate = 0 }, true},
		{"negative arrival", func(a *App) { a.ArrivalRate = -2 }, false},
		{"zero demand", func(a *App) { a.DemandPerRequest = 0 }, false},
		{"negative latency", func(a *App) { a.BaseLatency = -1 }, false},
		{"goal below floor", func(a *App) { a.GoalResponseTime = 0.01 }, false},
		{"negative memory", func(a *App) { a.MemoryMB = -1 }, false},
		{"negative max power", func(a *App) { a.MaxPowerMHz = -5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := experiment3App()
			tt.mutate(a)
			err := a.Validate()
			if tt.wantOK && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.wantOK && !errors.Is(err, ErrBadApp) {
				t.Fatalf("Validate = %v, want ErrBadApp", err)
			}
		})
	}
}

func TestExperimentThreeShape(t *testing.T) {
	a := experiment3App()
	// Paper: maximum achievable relative performance ≈0.66 at ≈130 GHz.
	if got := a.UtilityCap(); math.Abs(got-0.65) > 0.02 {
		t.Fatalf("UtilityCap = %v, want ≈0.65", got)
	}
	// 9 dedicated nodes (140,400 MHz) fully satisfy the workload.
	if got := a.Utility(140400); math.Abs(got-a.UtilityCap()) > 1e-9 {
		t.Fatalf("Utility(9 nodes) = %v, want cap %v", got, a.UtilityCap())
	}
	// 6 dedicated nodes (93,600 MHz) leave it clearly short of the cap.
	if got := a.Utility(93600); math.Abs(got-0.4) > 0.05 {
		t.Fatalf("Utility(6 nodes) = %v, want ≈0.4", got)
	}
	// Below saturation the model reports total violation.
	if got := a.Utility(a.ArrivalRate * a.DemandPerRequest); got != rpf.MinUtility {
		t.Fatalf("Utility(λc) = %v, want MinUtility", got)
	}
}

func TestResponseTimeMonotone(t *testing.T) {
	a := experiment3App()
	prev := math.Inf(1)
	for omega := 82000.0; omega <= 200000; omega += 1000 {
		got := a.ResponseTime(omega)
		if got > prev+1e-12 {
			t.Fatalf("ResponseTime increased at ω=%v", omega)
		}
		prev = got
	}
}

func TestDemandInvertsUtility(t *testing.T) {
	a := experiment3App()
	for _, u := range []float64{-2, -0.5, 0, 0.2, 0.4, 0.6} {
		omega := a.Demand(u)
		got := a.Utility(omega)
		if math.Abs(got-u) > 1e-9 {
			t.Fatalf("Utility(Demand(%v)) = %v", u, got)
		}
	}
	// Unreachable level maps to MaxDemand and the cap.
	omega := a.Demand(0.99)
	if omega != a.MaxDemand() {
		t.Fatalf("Demand(0.99) = %v, want MaxDemand %v", omega, a.MaxDemand())
	}
}

func TestUnboundedApp(t *testing.T) {
	a := experiment3App()
	a.MaxPowerMHz = 0
	capU := a.UtilityCap()
	want := (a.GoalResponseTime - a.BaseLatency) / a.GoalResponseTime
	if math.Abs(capU-want) > 1e-12 {
		t.Fatalf("UtilityCap = %v, want %v", capU, want)
	}
	md := a.MaxDemand()
	if got := a.Utility(md); got < capU-2e-3 {
		t.Fatalf("Utility(MaxDemand) = %v, too far below cap %v", got, capU)
	}
}

// Property: utility is monotone nondecreasing in allocation and
// Demand(Utility(ω)) ≤ ω wherever the model is stable.
func TestQuickMonotoneAndInverse(t *testing.T) {
	a := experiment3App()
	lc := a.ArrivalRate * a.DemandPerRequest
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		omega := lc*1.001 + math.Mod(math.Abs(raw), 300000)
		u := a.Utility(omega)
		if u <= rpf.MinUtility {
			return true
		}
		d := a.Demand(u)
		return d <= omega+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileGoal(t *testing.T) {
	mean := experiment3App()
	p95 := experiment3App()
	p95.GoalPercentile = 95
	if err := p95.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The 95th percentile of an exponential sojourn is ln(20) ≈ 3× the
	// mean queueing delay, so the same allocation yields a higher
	// (worse) response time and lower utility.
	omega := 110000.0
	if p95.ResponseTime(omega) <= mean.ResponseTime(omega) {
		t.Fatalf("p95 response %v not above mean %v",
			p95.ResponseTime(omega), mean.ResponseTime(omega))
	}
	if p95.Utility(omega) >= mean.Utility(omega) {
		t.Fatalf("p95 utility %v not below mean %v",
			p95.Utility(omega), mean.Utility(omega))
	}
	// The factor is exactly ln(20) on the queueing component.
	queueMean := mean.ResponseTime(omega) - mean.BaseLatency
	queueP95 := p95.ResponseTime(omega) - p95.BaseLatency
	if math.Abs(queueP95/queueMean-math.Log(20)) > 1e-9 {
		t.Fatalf("percentile factor = %v, want ln(20) = %v",
			queueP95/queueMean, math.Log(20))
	}
	// Demand/Utility still invert each other.
	for _, u := range []float64{-1, 0, 0.3} {
		d := p95.Demand(u)
		if got := p95.Utility(d); math.Abs(got-u) > 1e-9 {
			t.Fatalf("p95 Utility(Demand(%v)) = %v", u, got)
		}
	}
}

func TestPercentileValidation(t *testing.T) {
	for _, p := range []float64{10, 50, 100, 120} {
		a := experiment3App()
		a.GoalPercentile = p
		if err := a.Validate(); !errors.Is(err, ErrBadApp) {
			t.Fatalf("percentile %v accepted", p)
		}
	}
}

// TestQuiescedApp pins the rate-0 "no demand" semantics: a ramp-to-idle
// schedule must be able to quiesce an application without removing it.
func TestQuiescedApp(t *testing.T) {
	a := experiment3App()
	a.ArrivalRate = 0
	if err := a.Validate(); err != nil {
		t.Fatalf("zero arrival rate rejected: %v", err)
	}
	if !a.Quiesced() {
		t.Fatal("Quiesced = false at rate 0")
	}
	if got := a.ResponseTime(0); got != a.BaseLatency {
		t.Fatalf("ResponseTime(0) = %v, want base latency %v", got, a.BaseLatency)
	}
	cap := a.UtilityCap()
	for _, omega := range []float64{0, 100, 1e6} {
		if got := a.Utility(omega); math.Abs(got-cap) > 1e-12 {
			t.Fatalf("Utility(%v) = %v, want cap %v", omega, got, cap)
		}
	}
	if got := a.Demand(0.5); got != 0 {
		t.Fatalf("Demand = %v, want 0", got)
	}
	if got := a.MaxDemand(); got != 0 {
		t.Fatalf("MaxDemand = %v, want 0", got)
	}

	a.ArrivalRate = -1
	if err := a.Validate(); !errors.Is(err, ErrBadApp) {
		t.Fatalf("negative arrival rate accepted: %v", err)
	}
}
