package batch

import (
	"math"
	"math/rand"
	"testing"

	"dynplace/internal/rpf"
)

// The stage-walking formulas of equations (3)–(5) as they were written
// before Consts existed: each call re-derives total work, the stage in
// progress and the minimum remaining time from the profile. They stay
// here as the reference the single-walk implementation must reproduce
// bit for bit.

func refMinRemainingTime(s *Spec, done float64) float64 {
	if s.Remaining(done) == 0 {
		return 0
	}
	idx, remIn := s.StageAt(done)
	t := remIn / s.Stages[idx].MaxSpeedMHz
	for i := idx + 1; i < len(s.Stages); i++ {
		t += s.Stages[i].WorkMcycles / s.Stages[i].MaxSpeedMHz
	}
	return t
}

func refSustainableSpeed(s *Spec, done float64) float64 {
	rem := s.Remaining(done)
	if rem == 0 {
		return 0
	}
	return rem / refMinRemainingTime(s, done)
}

func refUtilityCap(s *Spec, done, now float64) float64 {
	if s.Remaining(done) == 0 {
		return s.UtilityAtCompletion(now)
	}
	return s.UtilityAtCompletion(now + refMinRemainingTime(s, done))
}

func refRequiredSpeed(s *Spec, u, done, now float64) (float64, bool) {
	rem := s.Remaining(done)
	if rem == 0 {
		return 0, true
	}
	capSpeed := refSustainableSpeed(s, done)
	if u <= rpf.MinUtility {
		return 0, true
	}
	t := s.CompletionForUtility(u)
	if t <= now {
		return capSpeed, false
	}
	omega := rem / (t - now)
	if omega >= capSpeed {
		achievable := u <= refUtilityCap(s, done, now)+1e-12
		return capSpeed, achievable
	}
	return omega, true
}

func refUtilityAtSpeed(s *Spec, omega, done, now float64) float64 {
	rem := s.Remaining(done)
	if rem == 0 {
		return s.UtilityAtCompletion(now)
	}
	if omega <= 0 {
		return rpf.MinUtility
	}
	capSpeed := refSustainableSpeed(s, done)
	if omega >= capSpeed {
		return refUtilityCap(s, done, now)
	}
	return s.UtilityAtCompletion(now + rem/omega)
}

// randomSpec draws a one- to four-stage profile.
func randomSpec(rng *rand.Rand) *Spec {
	s := &Spec{Name: "j", Submit: rng.Float64() * 100}
	s.DesiredStart = s.Submit + rng.Float64()*50
	s.Deadline = s.DesiredStart + 10 + rng.Float64()*5000
	for n := 1 + rng.Intn(4); n > 0; n-- {
		max := 200 + rng.Float64()*4000
		s.Stages = append(s.Stages, Stage{
			WorkMcycles: 100 + rng.Float64()*1e6,
			MaxSpeedMHz: max,
			MinSpeedMHz: float64(rng.Intn(2)) * rng.Float64() * max,
			MemoryMB:    rng.Float64() * 4000,
		})
	}
	return s
}

// randomDone draws a progress value: mostly inside the profile, sometimes
// exactly on a stage boundary, sometimes at or past the end.
func randomDone(rng *rand.Rand, s *Spec) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		var cum float64
		for _, st := range s.Stages[:1+rng.Intn(len(s.Stages))] {
			cum += st.WorkMcycles
		}
		return cum
	case 2:
		return s.TotalWork() * (1 + rng.Float64())
	default:
		return s.TotalWork() * rng.Float64()
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestConstsMatchStageWalkingFormulas: the ConstsAt-based RequiredSpeed,
// UtilityAtSpeed and UtilityCap (and the per-stage accessors Consts
// replaces) equal the stage-walking reference bit for bit.
func TestConstsMatchStageWalkingFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levels := append(DefaultLevels(), 0.999999, 1.5, -1e12)
	for trial := 0; trial < 2000; trial++ {
		s := randomSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		done := randomDone(rng, s)
		now := s.Submit + rng.Float64()*(s.Deadline-s.Submit)*1.5
		c := s.ConstsAt(done, now)

		if !sameBits(c.Remaining, s.Remaining(done)) || !sameBits(c.MinTime, refMinRemainingTime(s, done)) ||
			!sameBits(c.Sustainable, refSustainableSpeed(s, done)) {
			t.Fatalf("trial %d: remaining/minTime/sustainable = %v/%v/%v, want %v/%v/%v", trial,
				c.Remaining, c.MinTime, c.Sustainable,
				s.Remaining(done), refMinRemainingTime(s, done), refSustainableSpeed(s, done))
		}
		if c.MaxSpeed != s.MaxSpeedAt(done) || c.MinSpeed != s.MinSpeedAt(done) || c.Memory != s.MemoryAt(done) {
			t.Fatalf("trial %d: stage constants %v/%v/%v, want %v/%v/%v", trial,
				c.MaxSpeed, c.MinSpeed, c.Memory, s.MaxSpeedAt(done), s.MinSpeedAt(done), s.MemoryAt(done))
		}
		if got, want := s.UtilityCap(done, now), refUtilityCap(s, done, now); !sameBits(got, want) || !sameBits(c.UtilityCap, want) {
			t.Fatalf("trial %d: UtilityCap = %v (Consts %v), want %v", trial, got, c.UtilityCap, want)
		}
		us := append(append([]float64(nil), levels...), c.UtilityCap, c.UtilityCap-1e-13, c.UtilityCap+1e-13, rng.Float64()*2-1)
		for _, u := range us {
			got, gotOK := s.RequiredSpeed(u, done, now)
			want, wantOK := refRequiredSpeed(s, u, done, now)
			if !sameBits(got, want) || gotOK != wantOK {
				t.Fatalf("trial %d: RequiredSpeed(%v) = %v,%v, want %v,%v", trial, u, got, gotOK, want, wantOK)
			}
		}
		omegas := []float64{0, -1, c.Sustainable, c.Sustainable * 0.999999, c.Sustainable * 2, rng.Float64() * 5000, 1e-9}
		for _, omega := range omegas {
			if got, want := s.UtilityAtSpeed(omega, done, now), refUtilityAtSpeed(s, omega, done, now); !sameBits(got, want) {
				t.Fatalf("trial %d: UtilityAtSpeed(%v) = %v, want %v", trial, omega, got, want)
			}
		}
	}
}

// randomStates draws a job set with multi-stage specs, restart delays
// and, sometimes, a finished job.
func randomStates(rng *rand.Rand, n int) []State {
	states := make([]State, n)
	for i := range states {
		s := randomSpec(rng)
		states[i] = State{Spec: s, Done: randomDone(rng, s)}
		if rng.Intn(3) == 0 {
			states[i].Delay = rng.Float64() * 120
		}
	}
	if n > 0 && rng.Intn(2) == 0 {
		states[rng.Intn(n)].Done = states[0].Spec.TotalWork() * 3 // finished, whichever spec it lands on
	}
	return states
}

func samePredictions(a, b []Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].Utility, b[i].Utility) || !sameBits(a[i].SpeedMHz, b[i].SpeedMHz) {
			return false
		}
	}
	return true
}

// TestReusedHypotheticalMatchesFresh: one Hypothetical reset over a
// sequence of job sets of varying size and grid predicts exactly what a
// fresh NewHypothetical does for each.
func TestReusedHypotheticalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var reused Hypothetical
	var buf []Prediction
	grids := [][]float64{nil, UniformLevels(6, -3), DefaultLevels()[:5]}
	for trial := 0; trial < 400; trial++ {
		states := randomStates(rng, rng.Intn(12))
		levels := grids[rng.Intn(len(grids))]
		now := rng.Float64() * 3000
		fresh, err := NewHypothetical(now, states, levels)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := reused.Reset(now, states, levels); err != nil {
			t.Fatalf("trial %d: Reset: %v", trial, err)
		}
		if len(reused.Jobs()) != len(fresh.Jobs()) {
			t.Fatalf("trial %d: %d active jobs, fresh %d", trial, len(reused.Jobs()), len(fresh.Jobs()))
		}
		for _, omega := range []float64{0, rng.Float64() * fresh.MaxAggregateDemand(), fresh.MaxAggregateDemand(), fresh.MaxAggregateDemand() * 2} {
			buf = reused.AppendPredict(buf[:0], omega)
			if want := fresh.Predict(omega); !samePredictions(buf, want) {
				t.Fatalf("trial %d: Predict(%v) = %v, fresh %v", trial, omega, buf, want)
			}
			buf = reused.AppendPredictExact(buf[:0], omega)
			if want := fresh.PredictExact(omega); !samePredictions(buf, want) {
				t.Fatalf("trial %d: PredictExact(%v) = %v, fresh %v", trial, omega, buf, want)
			}
			if !sameBits(reused.AggregateDemandAt(0.3), fresh.AggregateDemandAt(0.3)) {
				t.Fatalf("trial %d: AggregateDemandAt differs", trial)
			}
		}
	}
}

// TestReusedHypotheticalAllocatesNothing: once grown to the job set, a
// reset-and-predict round is free of allocation.
func TestReusedHypotheticalAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	states := randomStates(rng, 40)
	var h Hypothetical
	preds := make([]Prediction, 0, len(states))
	var sink float64
	round := func() {
		if err := h.Reset(100, states, nil); err != nil {
			t.Fatal(err)
		}
		preds = h.AppendPredict(preds[:0], 9000)
		preds = h.AppendPredictExact(preds[:0], 9000)
		sink += preds[0].Utility
	}
	round() // warm
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("warm Reset+AppendPredict+AppendPredictExact allocates %v objects per round, want 0", allocs)
	}
}
