package dynplace_test

import (
	"fmt"
	"math/rand"
	"slices"

	"dynplace"
)

// The basic flow: configure a cluster, register workloads, run the
// simulation, inspect outcomes.
func Example() {
	sys, err := dynplace.NewSystem(
		dynplace.WithUniformCluster(2, 15600, 16384),
		dynplace.WithControlCycle(300),
		dynplace.WithPolicy("apc"),
		dynplace.WithFreePlacementActions(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.SubmitJob(dynplace.JobSpec{
		Name:        "analysis",
		WorkMcycles: 3900 * 1800, // 30 min at full speed
		MaxSpeedMHz: 3900,
		MemoryMB:    4320,
		Submit:      0,
		Deadline:    2 * 3600,
	}); err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.RunUntilDrained(86400); err != nil {
		fmt.Println(err)
		return
	}
	r := sys.JobResults()[0]
	fmt.Printf("completed=%v metGoal=%v at %.0f s\n", r.Completed, r.MetGoal, r.CompletedAt)
	// Output: completed=true metGoal=true at 1800 s
}

// Dynamic placement trades CPU between a web application and batch jobs
// by equalizing their relative performance.
func ExampleNewSystem_dynamicPlacement() {
	sys, err := dynplace.NewSystem(
		dynplace.WithUniformCluster(2, 15600, 16384),
		dynplace.WithControlCycle(300),
		dynplace.WithDynamicPlacement(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.AddWebApp(dynplace.WebAppSpec{
		Name: "api", ArrivalRate: 50, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2,
		MaxPowerMHz: 12000, MemoryMB: 1500,
	}); err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.Run(1200); err != nil {
		fmt.Println(err)
		return
	}
	pts := sys.WebUtilitySeries("api")
	fmt.Printf("samples=%d first=%.3f\n", len(pts), pts[0].Value)
	// Output: samples=5 first=0.829
}

// Jobs can declare placement constraints: this pair never shares a node.
func ExampleJobSpec_antiCollocate() {
	sys, err := dynplace.NewSystem(
		dynplace.WithUniformCluster(2, 15600, 16384),
		dynplace.WithControlCycle(300),
		dynplace.WithPolicy("apc"),
		dynplace.WithFreePlacementActions(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	_ = sys.SubmitJob(dynplace.JobSpec{
		Name: "io-heavy", WorkMcycles: 3900 * 600, MaxSpeedMHz: 3900,
		MemoryMB: 4320, Deadline: 7200,
		AntiCollocate: []string{"latency-probe"},
	})
	_ = sys.SubmitJob(dynplace.JobSpec{
		Name: "latency-probe", WorkMcycles: 3900 * 600, MaxSpeedMHz: 3900,
		MemoryMB: 4320, Deadline: 7200,
	})
	if err := sys.RunUntilDrained(86400); err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range sys.JobResults() {
		fmt.Printf("%s met=%v\n", r.Name, r.MetGoal)
	}
	// Output:
	// io-heavy met=true
	// latency-probe met=true
}

// Quickstart: one web application and three batch jobs share a small
// cluster under dynamic placement. The storefront keeps its capped
// allocation and every job meets its goal without a suspension.
func Example_quickstart() {
	// Four nodes: 4×3.9 GHz processors and 16 GB each.
	sys, err := dynplace.NewSystem(
		dynplace.WithUniformCluster(4, 15600, 16384),
		dynplace.WithControlCycle(300),
		dynplace.WithDynamicPlacement(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}

	// A storefront with a 250 ms response-time goal.
	if err := sys.AddWebApp(dynplace.WebAppSpec{
		Name:             "storefront",
		ArrivalRate:      100,  // requests/s
		DemandPerRequest: 120,  // megacycles per request
		BaseLatency:      0.04, // seconds
		GoalResponseTime: 0.25, // seconds
		MaxPowerMHz:      30000,
		MemoryMB:         2000,
	}); err != nil {
		fmt.Println(err)
		return
	}

	// Three batch jobs with different deadlines.
	jobs := []dynplace.JobSpec{
		{Name: "etl-hourly", WorkMcycles: 3900 * 1200, MaxSpeedMHz: 3900,
			MemoryMB: 4000, Submit: 0, Deadline: 3 * 3600},
		{Name: "ml-training", WorkMcycles: 3900 * 5400, MaxSpeedMHz: 3900,
			MemoryMB: 6000, Submit: 600, Deadline: 8 * 3600},
		{Name: "nightly-report", WorkMcycles: 2000 * 1800, MaxSpeedMHz: 2000,
			MemoryMB: 3000, Submit: 1200, Deadline: 4 * 3600},
	}
	for _, j := range jobs {
		if err := sys.SubmitJob(j); err != nil {
			fmt.Println(err)
			return
		}
	}

	if err := sys.RunUntilDrained(24 * 3600); err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("== Job outcomes")
	for _, r := range sys.JobResults() {
		status := "MISSED"
		if r.MetGoal {
			status = "met"
		}
		fmt.Printf("%-15s completed at %7.0f s  goal %s by %6.0f s  (utility %.2f, suspends %d)\n",
			r.Name, r.CompletedAt, status, r.DistanceToGoal, r.Utility, r.Suspends)
	}

	fmt.Println("\n== Storefront over time")
	util := sys.WebUtilitySeries("storefront")
	alloc := sys.WebAllocationSeries("storefront")
	for i := 0; i < len(util) && i < 8; i++ {
		fmt.Printf("t=%6.0f s  relative performance %.3f  allocation %6.0f MHz\n",
			util[i].Time, util[i].Value, alloc[i].Value)
	}
	fmt.Printf("\nplacement changes: %d, on-time rate: %.0f%%\n",
		sys.PlacementChanges(), 100*sys.OnTimeRate())
	// Output:
	// == Job outcomes
	// etl-hourly      completed at    1204 s  goal met by   9596 s  (utility 0.89, suspends 0)
	// ml-training     completed at    6004 s  goal met by  22796 s  (utility 0.81, suspends 0)
	// nightly-report  completed at    3004 s  goal met by  11396 s  (utility 0.86, suspends 0)
	//
	// == Storefront over time
	// t=     0 s  relative performance 0.813  allocation  30000 MHz
	// t=   300 s  relative performance 0.813  allocation  30000 MHz
	// t=   600 s  relative performance 0.813  allocation  30000 MHz
	// t=   900 s  relative performance 0.813  allocation  30000 MHz
	// t=  1200 s  relative performance 0.813  allocation  30000 MHz
	// t=  1500 s  relative performance 0.813  allocation  30000 MHz
	// t=  1800 s  relative performance 0.813  allocation  30000 MHz
	// t=  2100 s  relative performance 0.813  allocation  30000 MHz
	//
	// placement changes: 0, on-time rate: 100%
}

// Batch farm: a render farm compares the three scheduling policies on
// the same deadline-driven workload — non-preemptive FCFS (the common
// commercial default), preemptive EDF, and the utility-driven placement
// controller. The interesting output is not just how many frames meet
// their deadlines but how the pain is distributed when they cannot.
func Example_batchFarm() {
	fmt.Println("policy  on-time  changes   worst-miss[s]  median-dist[s]")
	fmt.Println("------  -------  -------   -------------  --------------")
	for _, policy := range []string{"fcfs", "edf", "apc"} {
		sys, err := dynplace.NewSystem(
			dynplace.WithUniformCluster(8, 15600, 16384),
			dynplace.WithControlCycle(300),
			dynplace.WithPolicy(policy),
			dynplace.WithFreePlacementActions(),
		)
		if err != nil {
			fmt.Println(err)
			return
		}

		// 160 render batches: mostly short previews with tight
		// deadlines, some long final-quality passes with loose ones.
		rng := rand.New(rand.NewSource(7))
		t := 0.0
		for i := 0; i < 160; i++ {
			t += rng.ExpFloat64() * 110
			spec := dynplace.JobSpec{MemoryMB: 4320, Submit: t}
			if rng.Float64() < 0.6 {
				spec.Name = fmt.Sprintf("preview-%03d", i)
				spec.WorkMcycles, spec.MaxSpeedMHz = 2340*900, 2340 // 15 min at full speed
				spec.Deadline = t + 1.4*900                         // factor 1.4
			} else {
				spec.Name = fmt.Sprintf("final-%03d", i)
				spec.WorkMcycles, spec.MaxSpeedMHz = 3900*7200, 3900 // 2 h at full speed
				spec.Deadline = t + 3*7200                           // factor 3
			}
			if err := sys.SubmitJob(spec); err != nil {
				fmt.Println(err)
				return
			}
		}

		if err := sys.RunUntilDrained(5e6); err != nil {
			fmt.Println(err)
			return
		}
		var dists []float64
		for _, r := range sys.JobResults() {
			dists = append(dists, r.DistanceToGoal)
		}
		slices.Sort(dists)
		fmt.Printf("%-6s  %6.1f%%  %7d   %13.0f  %14.0f\n",
			policy, 100*sys.OnTimeRate(), sys.PlacementChanges(), dists[0], dists[len(dists)/2])
	}
	// Output:
	// policy  on-time  changes   worst-miss[s]  median-dist[s]
	// ------  -------  -------   -------------  --------------
	// fcfs      59.4%        0           -5875             267
	// edf      100.0%      139              63             339
	// apc      100.0%      154              63             339
}

// Financial services — the paper's motivating mix. A stock trading
// application serves interactive traffic all day, spiking at the market
// open and close. Portfolio-analysis batch jobs are submitted at the
// close and must finish before the next open. With static partitioning
// the firm would need separate hardware for each workload; dynamic
// placement moves CPU to the trading front-end during spikes and hands
// the night to the analysts — on the same sixteen machines.
func Example_financial() {
	const hour = 3600.0
	sys, err := dynplace.NewSystem(
		dynplace.WithUniformCluster(16, 15600, 16384),
		dynplace.WithControlCycle(600),
		dynplace.WithDynamicPlacement(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Trading front-end: 100 ms goal, λ varying through the day.
	// t=0 is 06:00; market opens 09:30 (t=3.5h), closes 16:00 (t=10h).
	if err := sys.AddWebApp(dynplace.WebAppSpec{
		Name:             "trading",
		ArrivalRate:      40, // pre-open trickle
		DemandPerRequest: 350,
		BaseLatency:      0.025,
		GoalResponseTime: 0.100,
		MaxPowerMHz:      180000,
		MemoryMB:         2000,
		LoadSchedule: []dynplace.LoadPhase{
			{Start: 3.5 * hour, ArrivalRate: 320}, // opening auction spike
			{Start: 4.5 * hour, ArrivalRate: 180}, // steady session
			{Start: 9.5 * hour, ArrivalRate: 330}, // closing spike
			{Start: 10.5 * hour, ArrivalRate: 30}, // after hours
		},
	}); err != nil {
		fmt.Println(err)
		return
	}

	// Portfolio analyses land right after the close (t=10h) and must be
	// ready before the next open (t=27.5h → 17.5 h window).
	nextOpen := 27.5 * hour
	for i := 0; i < 40; i++ {
		submit := 10*hour + float64(i)*120
		if err := sys.SubmitJob(dynplace.JobSpec{
			Name:        fmt.Sprintf("portfolio-%02d", i),
			WorkMcycles: 3900 * 4 * hour, // 4 h at full speed
			MaxSpeedMHz: 3900,
			MemoryMB:    4320,
			Submit:      submit,
			Deadline:    nextOpen,
		}); err != nil {
			fmt.Println(err)
			return
		}
	}

	if err := sys.Run(28 * hour); err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("== Trading app through the day (relative performance and CPU)")
	util := sys.WebUtilitySeries("trading")
	alloc := sys.WebAllocationSeries("trading")
	batch := sys.BatchAllocationSeries()
	for i := 0; i < len(util); i += 6 {
		var b float64
		if i < len(batch) {
			b = batch[i].Value
		}
		fmt.Printf("t=%5.1f h  trading u=%+.3f  trading %6.0f MHz  batch %6.0f MHz\n",
			util[i].Time/hour, util[i].Value, alloc[i].Value, b)
	}

	met, total := 0, 0
	for _, r := range sys.JobResults() {
		total++
		if r.MetGoal {
			met++
		}
	}
	fmt.Printf("\nportfolio jobs ready for the open: %d/%d, placement changes: %d\n",
		met, total, sys.PlacementChanges())
	// Output:
	// == Trading app through the day (relative performance and CPU)
	// t=  0.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t=  1.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t=  2.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t=  3.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t=  4.0 h  trading u=+0.699  trading 180000 MHz  batch      0 MHz
	// t=  5.0 h  trading u=+0.720  trading 180000 MHz  batch      0 MHz
	// t=  6.0 h  trading u=+0.720  trading 180000 MHz  batch      0 MHz
	// t=  7.0 h  trading u=+0.720  trading 180000 MHz  batch      0 MHz
	// t=  8.0 h  trading u=+0.720  trading 180000 MHz  batch      0 MHz
	// t=  9.0 h  trading u=+0.720  trading 180000 MHz  batch      0 MHz
	// t= 10.0 h  trading u=+0.696  trading 180000 MHz  batch   3900 MHz
	// t= 11.0 h  trading u=+0.714  trading 107409 MHz  batch 114891 MHz
	// t= 12.0 h  trading u=+0.704  trading  86416 MHz  batch 139784 MHz
	// t= 13.0 h  trading u=+0.704  trading  86416 MHz  batch 139784 MHz
	// t= 14.0 h  trading u=+0.712  trading 102447 MHz  batch 131553 MHz
	// t= 15.0 h  trading u=+0.715  trading 111688 MHz  batch  91112 MHz
	// t= 16.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 17.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 18.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 19.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 20.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 21.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 22.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 23.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 24.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 25.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 26.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 27.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	// t= 28.0 h  trading u=+0.729  trading 180000 MHz  batch      0 MHz
	//
	// portfolio jobs ready for the open: 40/40, placement changes: 0
}

// Heterogeneous consolidation: the Experiment Three question at example
// scale. A web workload and a stream of batch jobs can either get fixed
// hardware partitions — the common datacenter practice the paper argues
// against — or share every node under dynamic placement. The run prints
// both workloads' relative performance under each regime so the cost of
// static partitioning is visible directly.
func Example_heterogeneous() {
	for _, dynamic := range []bool{true, false} {
		opts := []dynplace.Option{
			dynplace.WithUniformCluster(8, 15600, 16384),
			dynplace.WithControlCycle(600),
		}
		if dynamic {
			fmt.Println("== Dynamic sharing (placement controller)")
			opts = append(opts, dynplace.WithDynamicPlacement())
		} else {
			fmt.Println("\n== Static partition (3 web nodes, 5 batch nodes, FCFS)")
			opts = append(opts,
				dynplace.WithPolicy("fcfs"),
				dynplace.WithStaticWebPartition(0, 1, 2))
		}
		sys, err := dynplace.NewSystem(opts...)
		if err != nil {
			fmt.Println(err)
			return
		}

		// Analytics portal: needs about 2.5 nodes' worth of CPU at peak.
		if err := sys.AddWebApp(dynplace.WebAppSpec{
			Name:             "portal",
			ArrivalRate:      55,
			DemandPerRequest: 480,
			BaseLatency:      0.032,
			GoalResponseTime: 0.12,
			MaxPowerMHz:      60000,
			MemoryMB:         2000,
		}); err != nil {
			fmt.Println(err)
			return
		}

		// A burst of batch jobs overloads the farm in the first half of
		// the run: more work than the static batch partition can chew.
		for i := 0; i < 60; i++ {
			if err := sys.SubmitJob(dynplace.JobSpec{
				Name:        fmt.Sprintf("job-%02d", i),
				WorkMcycles: 3900 * 3000,
				MaxSpeedMHz: 3900,
				MemoryMB:    4320,
				Submit:      float64(i) * 150,
				Deadline:    float64(i)*150 + 2.0*3000,
			}); err != nil {
				fmt.Println(err)
				return
			}
		}

		if err := sys.Run(40000); err != nil {
			fmt.Println(err)
			return
		}

		webU := sys.WebUtilitySeries("portal")
		batchU := sys.BatchUtilitySeries()
		for i := 0; i < len(webU); i += 5 {
			line := fmt.Sprintf("t=%6.0f  web %+.3f", webU[i].Time, webU[i].Value)
			var bu float64
			has := false
			for _, p := range batchU {
				if p.Time <= webU[i].Time {
					bu, has = p.Value, true
				}
			}
			if has {
				line += fmt.Sprintf("  batch %+.3f", bu)
			}
			fmt.Println(line)
		}
		fmt.Printf("batch jobs on time: %.0f%%, placement changes: %d\n",
			100*sys.OnTimeRate(), sys.PlacementChanges())
	}
	// Output:
	// == Dynamic sharing (placement controller)
	// t=     0  web +0.609  batch +0.499
	// t=  3000  web +0.499  batch +0.464
	// t=  6000  web +0.436  batch +0.445
	// t=  9000  web +0.428  batch +0.438
	// t= 12000  web +0.614  batch +0.445
	// t= 15000  web +0.614  batch +0.445
	// t= 18000  web +0.614  batch +0.445
	// t= 21000  web +0.614  batch +0.445
	// t= 24000  web +0.614  batch +0.445
	// t= 27000  web +0.614  batch +0.445
	// t= 30000  web +0.614  batch +0.445
	// t= 33000  web +0.614  batch +0.445
	// t= 36000  web +0.614  batch +0.445
	// t= 39000  web +0.614  batch +0.445
	// batch jobs on time: 100%, placement changes: 0
	//
	// == Static partition (3 web nodes, 5 batch nodes, FCFS)
	// t=     0  web +0.537  batch +0.499
	// t=  3000  web +0.537  batch +0.381
	// t=  6000  web +0.537  batch +0.051
	// t=  9000  web +0.537  batch -0.294
	// t= 12000  web +0.537  batch -0.201
	// t= 15000  web +0.537  batch -0.221
	// t= 18000  web +0.537  batch -0.238
	// t= 21000  web +0.537  batch -0.238
	// t= 24000  web +0.537  batch -0.238
	// t= 27000  web +0.537  batch -0.238
	// t= 30000  web +0.537  batch -0.238
	// t= 33000  web +0.537  batch -0.238
	// t= 36000  web +0.537  batch -0.238
	// t= 39000  web +0.537  batch -0.238
	// batch jobs on time: 62%, placement changes: 0
}
