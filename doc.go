// Package dynplace is a library for integrated performance management of
// heterogeneous workloads: transactional (web) applications with
// response-time goals and long-running batch jobs with completion-time
// goals, sharing one cluster.
//
// It reproduces the system described in Carrera, Steinder, Whalley,
// Torres and Ayguadé, "Enabling resource sharing between transactional
// and batch workloads using dynamic application placement" (Middleware
// 2008): an application placement controller (APC) runs on a short
// control cycle, models every workload's performance relative to its
// goal with a relative performance function (RPF), and chooses which
// application instances run on which nodes — and with how much CPU — so
// that the ascending-sorted vector of relative performance values is
// lexicographically maximized. The effect is fairness: when everything
// fits, every workload exceeds its goal; when it cannot, violations are
// equalized rather than dumped on whoever arrived last.
//
// Batch jobs are evaluated through the paper's hypothetical relative
// performance function: a fluid model that, given the aggregate CPU
// devoted to batch work, predicts the relative performance every job —
// running or queued — will achieve, so trade-offs against transactional
// workloads can be made at each cycle without computing full schedules.
//
// # Quick start
//
//	sys, err := dynplace.NewSystem(
//		dynplace.WithUniformCluster(4, 15600, 16384),
//		dynplace.WithControlCycle(600),
//		dynplace.WithDynamicPlacement(),
//	)
//	if err != nil { ... }
//	err = sys.AddWebApp(dynplace.WebAppSpec{
//		Name: "storefront", ArrivalRate: 120, DemandPerRequest: 80,
//		BaseLatency: 0.02, GoalResponseTime: 0.25, MemoryMB: 1800,
//	})
//	err = sys.SubmitJob(dynplace.JobSpec{
//		Name: "nightly-report", WorkMcycles: 3.9e6, MaxSpeedMHz: 3900,
//		MemoryMB: 4000, Submit: 0, Deadline: 4 * 3600,
//	})
//	err = sys.RunUntilDrained(24 * 3600)
//	for _, r := range sys.JobResults() { ... }
//
// The simulation is deterministic: the same configuration and workload
// produce the same trajectory.
//
// Scheduling policies: WithDynamicPlacement manages web and batch
// workloads together on all nodes (the paper's technique).
// WithPolicy("apc"|"edf"|"fcfs") schedules batch jobs only, optionally
// next to a static web partition (WithStaticWebPartition) — the baseline
// configurations the paper compares against.
//
// # Live daemon
//
// Beyond the deterministic simulator, the placement controller also runs
// as a long-lived service: cmd/dynplaced hosts the control loop from
// internal/control on a real clock, accepts workload submissions over a
// JSON HTTP API (POST /v1/apps, POST /v1/jobs), swaps each cycle's
// placement in atomically, and republishes per-instance CPU shares to
// the request router as dispatch weights (POST /v1/route/{app} routes
// one request). GET /v1/placement, GET /v1/metrics and GET /v1/healthz
// expose the controller's state: current placement with
// relative-performance values, a
// ring-buffer history of per-cycle observations, and a truthful health
// status (degraded/failing with the last error while cycles cannot
// plan). The node inventory is live too: machines join (POST /v1/nodes),
// drain gracefully, fail abruptly (jobs are rescued with progress
// intact) and leave while the daemon runs, and the controller replans
// against the current inventory every cycle. In the simulator the same
// lifecycle is driven by System.AddNode, System.DrainNode and
// System.FailNode.
//
// The daemon is built on a pluggable clock (internal/daemon.Clock): in
// production it ticks on wall time; in tests the discrete-event
// simulation kernel (internal/sim) is the clock, so the entire daemon —
// HTTP handlers included — can be driven deterministically through
// virtual time. The simulator and the daemon execute the same planner
// (internal/control.Planner), which is what makes behavior validated
// against the paper's experiments carry over to live operation.
//
// With -state-dir the daemon is durable (internal/store): mutations and
// applied cycles are journaled to an fsync'd write-ahead log with
// periodic compacting snapshots, and a restart replays them — apps,
// jobs with accumulated progress, and the node inventory survive
// kill -9, with previously running jobs rescued onto the recovered
// placement. GET /v1/state and the shared SystemMetrics gauges
// (UptimeCycles, Restarts, ReplayDurationSeconds — see System.Metrics)
// report the recovery trajectory.
//
// # Scaling: parallelism and sharding
//
// Two knobs scale the per-cycle placement solve past the paper's
// 25-node testbed. WithParallelism fans candidate evaluation out to a
// bounded worker pool; placement decisions are bit-identical at every
// setting, so it trades CPU for latency only. WithShards (or
// WithShardSpec for an explicit rebalancing seed) partitions the
// cluster into zones solved concurrently as independent placement
// problems, with web applications and batch jobs rebalanced across
// zones each cycle from per-zone utilization and unmet demand — the
// lever for clusters where even a parallel flat solve cannot finish
// within the control cycle. A single-zone configuration reproduces the
// flat solver bit for bit, and for a fixed ShardSpec the sharded
// trajectory is fully reproducible. docs/ARCHITECTURE.md maps the
// packages; docs/OPERATIONS.md is the operator's runbook.
package dynplace
