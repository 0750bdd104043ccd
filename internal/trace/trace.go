// Package trace generates the paper's experiment workloads and the
// mixed-workload replay traces, so experiments are reproducible and
// shareable between the CLI tools and the benchmark harness.
package trace

import (
	"fmt"
	"math/rand"

	"dynplace/internal/batch"
	"dynplace/internal/txn"
)

// ExponentialArrivals draws n arrival instants with exponentially
// distributed inter-arrival times of the given mean, starting at start.
func ExponentialArrivals(rng *rand.Rand, start, meanInterarrival float64, n int) []float64 {
	out := make([]float64, n)
	t := start
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * meanInterarrival
		out[i] = t
	}
	return out
}

// Experiment1Job builds one job with the properties of Table 2:
// 68,640,000 Mcycles at up to 3,900 MHz (one processor), 4,320 MB,
// relative goal factor 2.7 (goal 47,520 s after submission).
func Experiment1Job(name string, submit float64) *batch.Spec {
	const (
		work       = 68640000.0
		maxSpeed   = 3900.0
		memory     = 4320.0
		goalFactor = 2.7
	)
	minExec := work / maxSpeed
	return batch.SingleStage(name, work, maxSpeed, memory, submit, submit+goalFactor*minExec)
}

// Experiment1Workload generates the identical jobs of Experiment One with
// exponential inter-arrivals of the given mean (the paper: 800 jobs,
// mean 260 s).
func Experiment1Workload(seed int64, jobs int, meanInterarrival float64) []*batch.Spec {
	rng := rand.New(rand.NewSource(seed))
	arrivals := ExponentialArrivals(rng, 0, meanInterarrival, jobs)
	out := make([]*batch.Spec, jobs)
	for i, t := range arrivals {
		out[i] = Experiment1Job(fmt.Sprintf("job-%04d", i), t)
	}
	return out
}

// Experiment2Profile is one of the three job shapes of Experiment Two.
type Experiment2Profile struct {
	// MinExecSeconds is the execution time at maximum speed.
	MinExecSeconds float64
	// MaxSpeedMHz is the job's speed cap.
	MaxSpeedMHz float64
	// Probability of drawing this profile.
	Probability float64
}

// Experiment2Profiles returns the paper's job mix: 9,000 s at 3,900 MHz
// (10%), 17,600 s at 1,560 MHz (40%), 600 s at 2,340 MHz (50%).
func Experiment2Profiles() []Experiment2Profile {
	return []Experiment2Profile{
		{MinExecSeconds: 9000, MaxSpeedMHz: 3900, Probability: 0.10},
		{MinExecSeconds: 17600, MaxSpeedMHz: 1560, Probability: 0.40},
		{MinExecSeconds: 600, MaxSpeedMHz: 2340, Probability: 0.50},
	}
}

// Experiment2GoalFactors returns the paper's goal-factor mix: 1.3 (10%),
// 2.5 (30%), 4.0 (60%).
func Experiment2GoalFactors() (factors []float64, probs []float64) {
	return []float64{1.3, 2.5, 4.0}, []float64{0.10, 0.30, 0.60}
}

// Experiment2Workload draws the mixed workload of Experiment Two with the
// given mean inter-arrival time. Memory per job matches Experiment One
// (4,320 MB → at most 3 jobs per node).
func Experiment2Workload(seed int64, jobs int, meanInterarrival float64) []*batch.Spec {
	rng := rand.New(rand.NewSource(seed))
	arrivals := ExponentialArrivals(rng, 0, meanInterarrival, jobs)
	profiles := Experiment2Profiles()
	factors, fprobs := Experiment2GoalFactors()
	out := make([]*batch.Spec, jobs)
	for i, t := range arrivals {
		p := profiles[pick(rng, []float64{profiles[0].Probability, profiles[1].Probability, profiles[2].Probability})]
		f := factors[pick(rng, fprobs)]
		work := p.MinExecSeconds * p.MaxSpeedMHz
		spec := batch.SingleStage(
			fmt.Sprintf("job-%04d", i), work, p.MaxSpeedMHz, 4320,
			t, t+f*p.MinExecSeconds)
		out[i] = spec
	}
	return out
}

// pick selects an index from the probability vector.
func pick(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if x < cum {
			return i
		}
	}
	return len(probs) - 1
}

// Experiment3WebApp returns the constant transactional application of
// Experiment Three, parameterized so the model reproduces the paper's
// observations: maximum achievable relative performance ≈0.66 reached at
// ≈130,000 MHz (less than 9 dedicated nodes), and a clearly lower value
// on a 6-node partition.
func Experiment3WebApp() *txn.App {
	return &txn.App{
		Name:             "tx",
		ArrivalRate:      170,
		DemandPerRequest: 480,
		BaseLatency:      0.032,
		GoalResponseTime: 0.120,
		MaxPowerMHz:      130000,
		MemoryMB:         2000,
	}
}

// Experiment3Workload builds the long-running side of Experiment Three:
// the Experiment One job, submitted first at a rate high enough to cause
// queueing against the reduced batch capacity, then at a relaxed rate so
// the queue drains.
func Experiment3Workload(seed int64, heavyJobs, lightJobs int, heavyInterarrival, lightInterarrival float64) []*batch.Spec {
	rng := rand.New(rand.NewSource(seed))
	arrivals := ExponentialArrivals(rng, 0, heavyInterarrival, heavyJobs)
	var lastT float64
	if len(arrivals) > 0 {
		lastT = arrivals[len(arrivals)-1]
	}
	arrivals = append(arrivals, ExponentialArrivals(rng, lastT, lightInterarrival, lightJobs)...)
	out := make([]*batch.Spec, len(arrivals))
	for i, t := range arrivals {
		out[i] = Experiment1Job(fmt.Sprintf("job-%04d", i), t)
	}
	return out
}
