package trace

import (
	"math"
	"math/rand"
	"testing"
)

func TestExponentialArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arr := ExponentialArrivals(rng, 100, 260, 5000)
	if len(arr) != 5000 {
		t.Fatalf("len = %d", len(arr))
	}
	prev := 100.0
	var sum float64
	for _, a := range arr {
		if a < prev {
			t.Fatal("arrivals not monotone")
		}
		sum += a - prev
		prev = a
	}
	mean := sum / float64(len(arr))
	if math.Abs(mean-260) > 15 {
		t.Fatalf("mean inter-arrival = %v, want ≈260", mean)
	}
}

func TestExperiment1Job(t *testing.T) {
	j := Experiment1Job("x", 1000)
	if got := j.MinExecTime(); got != 17600 {
		t.Fatalf("MinExecTime = %v, want 17600 (Table 2)", got)
	}
	if got := j.Deadline - j.Submit; math.Abs(got-47520) > 1e-9 {
		t.Fatalf("relative goal = %v, want 47520 (Table 2)", got)
	}
	if got := j.Stages[0].MemoryMB; got != 4320 {
		t.Fatalf("memory = %v, want 4320", got)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestExperiment1Workload(t *testing.T) {
	specs := Experiment1Workload(7, 800, 260)
	if len(specs) != 800 {
		t.Fatalf("len = %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate %s: %v", s.Name, err)
		}
	}
	// Deterministic for a fixed seed.
	again := Experiment1Workload(7, 800, 260)
	for i := range specs {
		if specs[i].Submit != again[i].Submit {
			t.Fatal("workload not deterministic")
		}
	}
	// Different seeds differ.
	other := Experiment1Workload(8, 800, 260)
	same := true
	for i := range specs {
		if specs[i].Submit != other[i].Submit {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestExperiment2WorkloadMix(t *testing.T) {
	specs := Experiment2Workload(3, 8000, 100)
	profCount := map[float64]int{}
	factorCount := map[string]int{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		profCount[s.Stages[0].MaxSpeedMHz]++
		factorCount[bucketFactor(s.GoalFactor())]++
	}
	// Profile mix 10/40/50.
	if frac := float64(profCount[3900]) / 8000; math.Abs(frac-0.10) > 0.02 {
		t.Fatalf("3900 MHz fraction = %v, want ≈0.10", frac)
	}
	if frac := float64(profCount[1560]) / 8000; math.Abs(frac-0.40) > 0.02 {
		t.Fatalf("1560 MHz fraction = %v, want ≈0.40", frac)
	}
	if frac := float64(profCount[2340]) / 8000; math.Abs(frac-0.50) > 0.02 {
		t.Fatalf("2340 MHz fraction = %v, want ≈0.50", frac)
	}
	// Goal-factor mix 10/30/60.
	if frac := float64(factorCount["1.3"]) / 8000; math.Abs(frac-0.10) > 0.02 {
		t.Fatalf("factor 1.3 fraction = %v, want ≈0.10", frac)
	}
	if frac := float64(factorCount["4.0"]) / 8000; math.Abs(frac-0.60) > 0.02 {
		t.Fatalf("factor 4.0 fraction = %v, want ≈0.60", frac)
	}
}

func bucketFactor(f float64) string {
	switch {
	case math.Abs(f-1.3) < 0.01:
		return "1.3"
	case math.Abs(f-2.5) < 0.01:
		return "2.5"
	case math.Abs(f-4.0) < 0.01:
		return "4.0"
	default:
		return "?"
	}
}

func TestExperiment3WebApp(t *testing.T) {
	app := Experiment3WebApp()
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The paper's shape: cap ≈0.66 at 130,000 MHz; 9 nodes satisfy it.
	if got := app.UtilityCap(); math.Abs(got-0.65) > 0.02 {
		t.Fatalf("UtilityCap = %v, want ≈0.65", got)
	}
	if app.MaxDemand() > 9*4*3900 {
		t.Fatalf("MaxDemand %v exceeds 9 nodes", app.MaxDemand())
	}
}

func TestExperiment3WorkloadPhases(t *testing.T) {
	specs := Experiment3Workload(5, 100, 50, 150, 600)
	if len(specs) != 150 {
		t.Fatalf("len = %d", len(specs))
	}
	// The light phase must start after the heavy phase.
	if specs[100].Submit <= specs[99].Submit {
		t.Fatal("phases out of order")
	}
	// Heavy phase arrives faster on average than light phase.
	heavySpan := specs[99].Submit - specs[0].Submit
	lightSpan := specs[149].Submit - specs[100].Submit
	if heavySpan/99 >= lightSpan/49 {
		t.Fatalf("heavy inter-arrival %v not faster than light %v", heavySpan/99, lightSpan/49)
	}
}

func TestPickDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 3)
	probs := []float64{0.2, 0.3, 0.5}
	for i := 0; i < 10000; i++ {
		counts[pick(rng, probs)]++
	}
	for i, p := range probs {
		frac := float64(counts[i]) / 10000
		if math.Abs(frac-p) > 0.02 {
			t.Fatalf("pick fraction[%d] = %v, want ≈%v", i, frac, p)
		}
	}
}
