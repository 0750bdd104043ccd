package batch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dynplace/internal/rpf"
)

// Jobs from the paper's Table 1 (Section 4.3 worked example).
func exampleJ1() *Spec {
	return SingleStage("J1", 4000, 1000, 750, 0, 20)
}

func exampleJ2(scenario int) *Spec {
	deadline := 17.0 // S1: relative goal 16, start 1
	if scenario == 2 {
		deadline = 13 // S2: relative goal 12
	}
	return SingleStage("J2", 2000, 500, 750, 1, deadline)
}

func exampleJ3() *Spec {
	return SingleStage("J3", 4000, 500, 750, 2, 10)
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
		wantOK bool
	}{
		{"valid", func(*Spec) {}, true},
		{"no stages", func(s *Spec) { s.Stages = nil }, false},
		{"zero work", func(s *Spec) { s.Stages[0].WorkMcycles = 0 }, false},
		{"zero speed", func(s *Spec) { s.Stages[0].MaxSpeedMHz = 0 }, false},
		{"min above max", func(s *Spec) { s.Stages[0].MinSpeedMHz = 2000 }, false},
		{"negative memory", func(s *Spec) { s.Stages[0].MemoryMB = -1 }, false},
		{"start before submit", func(s *Spec) { s.DesiredStart = -1 }, false},
		{"deadline before start", func(s *Spec) { s.Deadline = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := exampleJ1()
			tt.mutate(s)
			err := s.Validate()
			if tt.wantOK && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.wantOK && !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Validate = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestTableOneProperties(t *testing.T) {
	j1, j2, j3 := exampleJ1(), exampleJ2(1), exampleJ3()
	if got := j1.MinExecTime(); got != 4 {
		t.Fatalf("J1 MinExecTime = %v, want 4", got)
	}
	if got := j2.MinExecTime(); got != 4 {
		t.Fatalf("J2 MinExecTime = %v, want 4", got)
	}
	if got := j3.MinExecTime(); got != 8 {
		t.Fatalf("J3 MinExecTime = %v, want 8", got)
	}
	if got := j1.GoalFactor(); got != 5 {
		t.Fatalf("J1 GoalFactor = %v, want 5", got)
	}
	if got := j2.GoalFactor(); got != 4 {
		t.Fatalf("J2 GoalFactor = %v, want 4", got)
	}
	if got := j3.GoalFactor(); got != 1 {
		t.Fatalf("J3 GoalFactor = %v, want 1", got)
	}
	if got := exampleJ2(2).GoalFactor(); got != 3 {
		t.Fatalf("S2 J2 GoalFactor = %v, want 3", got)
	}
}

func TestExperimentOneJobShape(t *testing.T) {
	// Table 2: 68,640,000 Mcycles at 3,900 MHz → 17,600 s; factor 2.7 →
	// relative goal 47,520 s; maximum achievable utility 0.63.
	j := SingleStage("exp1", 68640000, 3900, 4320, 0, 47520)
	if got := j.MinExecTime(); got != 17600 {
		t.Fatalf("MinExecTime = %v, want 17600", got)
	}
	if got := j.GoalFactor(); math.Abs(got-2.7) > 1e-12 {
		t.Fatalf("GoalFactor = %v, want 2.7", got)
	}
	if got := j.UtilityCap(0, 0); math.Abs(got-0.6296296) > 1e-6 {
		t.Fatalf("UtilityCap = %v, want ≈0.63 (paper)", got)
	}
}

func TestAdvanceSingleStage(t *testing.T) {
	j := exampleJ1()
	done, idle := j.Advance(0, 1000, 1)
	if done != 1000 || idle != 0 {
		t.Fatalf("Advance = %v, %v; want 1000, 0", done, idle)
	}
	// Speed above the stage cap is clamped.
	done, idle = j.Advance(0, 5000, 1)
	if done != 1000 || idle != 0 {
		t.Fatalf("Advance clamped = %v, %v; want 1000, 0", done, idle)
	}
	// Finishing early reports idle time.
	done, idle = j.Advance(3500, 1000, 2)
	if done != 4000 || math.Abs(idle-1.5) > 1e-12 {
		t.Fatalf("Advance finish = %v, %v; want 4000, 1.5", done, idle)
	}
	// Zero speed makes no progress.
	done, idle = j.Advance(100, 0, 5)
	if done != 100 || idle != 0 {
		t.Fatalf("Advance zero-speed = %v, %v; want 100, 0", done, idle)
	}
}

func TestMultiStage(t *testing.T) {
	s := &Spec{
		Name: "etl",
		Stages: []Stage{
			{WorkMcycles: 1000, MaxSpeedMHz: 1000, MemoryMB: 500},
			{WorkMcycles: 2000, MaxSpeedMHz: 500, MemoryMB: 1500},
			{WorkMcycles: 300, MaxSpeedMHz: 3000, MemoryMB: 200},
		},
		Submit:       0,
		DesiredStart: 0,
		Deadline:     20,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := s.TotalWork(); got != 3300 {
		t.Fatalf("TotalWork = %v, want 3300", got)
	}
	if got, want := s.MinExecTime(), 1.0+4.0+0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MinExecTime = %v, want %v", got, want)
	}
	idx, rem := s.StageAt(0)
	if idx != 0 || rem != 1000 {
		t.Fatalf("StageAt(0) = %d, %v; want 0, 1000", idx, rem)
	}
	idx, rem = s.StageAt(1500)
	if idx != 1 || rem != 1500 {
		t.Fatalf("StageAt(1500) = %d, %v; want 1, 1500", idx, rem)
	}
	idx, rem = s.StageAt(3300)
	if idx != 2 || rem != 0 {
		t.Fatalf("StageAt(3300) = %d, %v; want 2, 0", idx, rem)
	}
	if got := s.MemoryAt(1500); got != 1500 {
		t.Fatalf("MemoryAt = %v, want 1500", got)
	}
	if got := s.MaxSpeedAt(3100); got != 3000 {
		t.Fatalf("MaxSpeedAt = %v, want 3000", got)
	}

	// Advance across a stage boundary: 1 s at 1000 MHz finishes stage 1;
	// another 1 s progresses stage 2 at its 500 MHz cap.
	done, idle := s.Advance(0, 1000, 2)
	if math.Abs(done-1500) > 1e-9 || idle != 0 {
		t.Fatalf("Advance across boundary = %v, %v; want 1500, 0", done, idle)
	}
	// The minimum remaining time is stage-aware.
	if got, want := s.ConstsAt(1500, 0).MinTime, 3.0+0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ConstsAt(1500, 0).MinTime = %v, want %v", got, want)
	}
}

func TestUtilityAtCompletion(t *testing.T) {
	j := exampleJ2(1) // goal 17, window 16
	if got := j.UtilityAtCompletion(17); got != 0 {
		t.Fatalf("u(goal) = %v, want 0", got)
	}
	if got := j.UtilityAtCompletion(5); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("u(5) = %v, want 0.75", got)
	}
	if got := j.UtilityAtCompletion(33); math.Abs(got+1) > 1e-12 {
		t.Fatalf("u(33) = %v, want -1", got)
	}
}

func TestUtilityCapDelayPenalty(t *testing.T) {
	// The paper: if J2 (S1) cannot start before t=2, its best completion
	// is 6, giving u^max = 11/16 ≈ 0.69; in S2 u^max = 7/12 ≈ 0.58.
	j := exampleJ2(1)
	if got, want := j.UtilityCap(0, 2), 11.0/16; math.Abs(got-want) > 1e-12 {
		t.Fatalf("S1 UtilityCap = %v, want %v", got, want)
	}
	j2 := exampleJ2(2)
	if got, want := j2.UtilityCap(0, 2), 7.0/12; math.Abs(got-want) > 1e-12 {
		t.Fatalf("S2 UtilityCap = %v, want %v", got, want)
	}
}

func TestRequiredSpeed(t *testing.T) {
	j := exampleJ1()
	// At t=2 with 2500 Mcycles left: u=0.7 needs completion at 6, so
	// 2500/4 = 625 MHz.
	speed, ok := j.RequiredSpeed(0.7, 1500, 2)
	if !ok || math.Abs(speed-625) > 1e-9 {
		t.Fatalf("RequiredSpeed = %v, %v; want 625, true", speed, ok)
	}
	// Unreachable level clamps to the sustainable speed.
	speed, ok = j.RequiredSpeed(0.99, 1500, 2)
	if ok || math.Abs(speed-1000) > 1e-9 {
		t.Fatalf("RequiredSpeed(unreachable) = %v, %v; want 1000, false", speed, ok)
	}
	// The −∞ sentinel demands nothing.
	speed, ok = j.RequiredSpeed(rpf.MinUtility, 1500, 2)
	if !ok || speed != 0 {
		t.Fatalf("RequiredSpeed(−∞) = %v, %v; want 0, true", speed, ok)
	}
	// A finished job demands nothing.
	speed, ok = j.RequiredSpeed(0.5, 4000, 2)
	if !ok || speed != 0 {
		t.Fatalf("RequiredSpeed(done) = %v, %v; want 0, true", speed, ok)
	}
}

func TestUtilityAtSpeedInvertsRequiredSpeed(t *testing.T) {
	j := exampleJ2(2)
	for _, u := range []float64{-3, -1, 0, 0.25, 0.5} {
		speed, ok := j.RequiredSpeed(u, 500, 2)
		if !ok {
			t.Fatalf("RequiredSpeed(%v) unachievable", u)
		}
		got := j.UtilityAtSpeed(speed, 500, 2)
		if math.Abs(got-u) > 1e-9 {
			t.Fatalf("UtilityAtSpeed(RequiredSpeed(%v)) = %v", u, got)
		}
	}
	if got := j.UtilityAtSpeed(0, 500, 2); got != rpf.MinUtility {
		t.Fatalf("UtilityAtSpeed(0) = %v, want MinUtility", got)
	}
	// Speeds above sustainable return the cap.
	if got, want := j.UtilityAtSpeed(1e9, 500, 2), j.UtilityCap(500, 2); got != want {
		t.Fatalf("UtilityAtSpeed(huge) = %v, want cap %v", got, want)
	}
}

// Property: RequiredSpeed is monotone nondecreasing in u, and
// UtilityAtSpeed is monotone nondecreasing in speed.
func TestQuickMonotoneSpeedUtility(t *testing.T) {
	j := exampleJ1()
	f := func(rawA, rawB float64) bool {
		if math.IsNaN(rawA) || math.IsNaN(rawB) || math.IsInf(rawA, 0) || math.IsInf(rawB, 0) {
			return true
		}
		a := math.Mod(math.Abs(rawA), 1.8) - 0.9
		b := math.Mod(math.Abs(rawB), 1.8) - 0.9
		if a > b {
			a, b = b, a
		}
		sa, _ := j.RequiredSpeed(a, 1000, 3)
		sb, _ := j.RequiredSpeed(b, 1000, 3)
		if sa > sb+1e-9 {
			return false
		}
		ua := j.UtilityAtSpeed(sa, 1000, 3)
		ub := j.UtilityAtSpeed(sb, 1000, 3)
		return ua <= ub+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance conserves work — advancing in two chunks equals one.
func TestQuickAdvanceAdditive(t *testing.T) {
	s := &Spec{
		Name: "multi",
		Stages: []Stage{
			{WorkMcycles: 500, MaxSpeedMHz: 900, MemoryMB: 1},
			{WorkMcycles: 800, MaxSpeedMHz: 300, MemoryMB: 1},
		},
		Deadline: 100,
	}
	f := func(rawSpeed, rawT1, rawT2 float64) bool {
		if math.IsNaN(rawSpeed) || math.IsNaN(rawT1) || math.IsNaN(rawT2) {
			return true
		}
		speed := math.Mod(math.Abs(rawSpeed), 1000)
		t1 := math.Mod(math.Abs(rawT1), 3)
		t2 := math.Mod(math.Abs(rawT2), 3)
		oneShot, _ := s.Advance(0, speed, t1+t2)
		mid, _ := s.Advance(0, speed, t1)
		twoShot, _ := s.Advance(mid, speed, t2)
		return math.Abs(oneShot-twoShot) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
