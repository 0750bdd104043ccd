package experiments

import (
	"fmt"
	"math/rand"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/txn"
)

// buildScaleProblem generates one randomized mixed-workload placement
// problem mid-run on a uniform cluster of the given size, past the
// paper's 25-node testbed: two web applications already replicated
// across a few nodes, 10 batch jobs per 100 nodes (at least 10) with
// three quarters of them placed with random progress and the rest
// queued, T = 600 s and one optimizer pass — what a latency budget per
// control cycle buys at this scale. The seed is 7 + nodes, so each size
// is one fixed problem. With distinct set, each node's CPU is drawn from
// the same seed within ±20 % of 15 600 MHz instead, after every other
// draw, so the rest of the problem is the uniform one.
func buildScaleProblem(nodes int, distinct bool) (*core.Problem, error) {
	const (
		webApps             = 2
		jobsPerHundredNodes = 10
	)
	cl, err := cluster.Uniform(nodes, 15600, 16384)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7 + int64(nodes)))
	jobs := nodes * jobsPerHundredNodes / 100
	if jobs < 10 {
		jobs = 10
	}

	apps := make([]*core.Application, 0, webApps+jobs)
	current := core.NewPlacement(webApps + jobs)
	for i := 0; i < webApps; i++ {
		web := &txn.App{
			Name:             fmt.Sprintf("web-%d", i),
			ArrivalRate:      150 + rng.Float64()*100,
			DemandPerRequest: 120,
			BaseLatency:      0.04,
			GoalResponseTime: 0.25,
			MaxPowerMHz:      40000,
			MemoryMB:         2000,
		}
		apps = append(apps, &core.Application{Name: web.Name, Kind: core.KindWeb, Web: web})
		for k := 0; k < 3; k++ {
			current.Add(i, cluster.NodeID((i*3+k)%nodes))
		}
	}
	placed := jobs * 3 / 4
	for j := 0; j < jobs; j++ {
		work := 1e6 + rng.Float64()*6e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1560+rng.Float64()*2340, 4320, 0, 20000+rng.Float64()*50000)
		idx := webApps + j
		app := &core.Application{Name: spec.Name, Kind: core.KindBatch, Job: spec}
		if j < placed {
			app.Done = rng.Float64() * work * 0.6
			app.Started = true
			// Three jobs per node fit the 16 GB nodes; start past the
			// web-hosting prefix.
			current.Add(idx, cluster.NodeID((j/3+webApps*3)%nodes))
		}
		apps = append(apps, app)
	}
	if distinct {
		specs := cl.Nodes()
		for i := range specs {
			specs[i].CPUMHz = 15600 * (0.8 + 0.4*rng.Float64())
		}
		if cl, err = cluster.New(specs...); err != nil {
			return nil, err
		}
	}

	return &core.Problem{
		Cluster:   cl,
		Now:       30000,
		Cycle:     600,
		Apps:      apps,
		Current:   current,
		Costs:     cluster.DefaultCostModel(),
		MaxPasses: 1,
	}, nil
}
