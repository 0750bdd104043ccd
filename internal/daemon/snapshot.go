package daemon

import (
	"dynplace"
	"dynplace/internal/router"
	"dynplace/internal/shard"
	"dynplace/internal/store"
)

// InstanceView is one placed instance of a web application, with the
// CPU share that doubles as its request-dispatch weight.
type InstanceView struct {
	Node     string  `json:"node"`
	PowerMHz float64 `json:"powerMHz"`
}

// WebPlacementView is one web application's slice of a placement.
type WebPlacementView struct {
	Name        string         `json:"name"`
	ArrivalRate float64        `json:"arrivalRate"`
	AllocMHz    float64        `json:"allocMHz"`
	Utility     float64        `json:"utility"`
	Instances   []InstanceView `json:"instances"`
}

// JobPlacementView is one batch job's slice of a placement.
type JobPlacementView struct {
	Name         string  `json:"name"`
	Status       string  `json:"status"`
	Node         string  `json:"node,omitempty"`
	SpeedMHz     float64 `json:"speedMHz"`
	DoneMcycles  float64 `json:"doneMcycles"`
	TotalMcycles float64 `json:"totalMcycles"`
	Utility      float64 `json:"utility"`
	Deadline     float64 `json:"deadline"`
}

// NodeView is one inventory node's slice of a placement: its lifecycle
// state and how much work it currently hosts.
type NodeView struct {
	Name   string  `json:"name"`
	State  string  `json:"state"`
	CPUMHz float64 `json:"cpuMHz"`
	MemMB  float64 `json:"memMB"`
	// WebInstances and Jobs count the workloads placed on the node as of
	// the snapshot's cycle; a draining node is safe to remove once both
	// reach zero.
	WebInstances int `json:"webInstances"`
	Jobs         int `json:"jobs"`
}

// PlacementSnapshot is the full outcome of one control cycle: what runs
// where, at what speed, and how well every workload is predicted to meet
// its goal. The daemon swaps a fresh snapshot in atomically each cycle;
// GET /v1/placement serves it without touching the control loop's locks.
//
// A cycle whose planning failed publishes a snapshot too: the cycle
// number advances, Err carries the failure, and Web/Jobs keep the last
// successfully planned state (which is what is still deployed), so
// /v1/placement, /v1/healthz and the cycle history always agree about the
// failure instead of silently serving a stale-but-clean view.
type PlacementSnapshot struct {
	Cycle     int64              `json:"cycle"`
	Time      float64            `json:"time"`
	Web       []WebPlacementView `json:"web"`
	Jobs      []JobPlacementView `json:"jobs"`
	Nodes     []NodeView         `json:"nodes"`
	OmegaGMHz float64            `json:"omegaGMHz"`
	// InventoryVersion is the node-inventory version the cycle planned
	// against.
	InventoryVersion int64 `json:"inventoryVersion"`
	// Err is set when this cycle's planning failed; Infeasible marks the
	// no-feasible-placement case and InfeasibleStreak counts consecutive
	// infeasible cycles (0 once a cycle succeeds).
	Err              string `json:"err,omitempty"`
	Infeasible       bool   `json:"infeasible,omitempty"`
	InfeasibleStreak int    `json:"infeasibleStreak,omitempty"`
	// Changes counts the disruptive batch placement actions this cycle
	// (suspends, resumes, migrations — the paper's Figure 4 metric);
	// InstanceChanges counts instance-level differences the optimizer
	// introduced relative to the previous placement, web included.
	Changes         int `json:"changes"`
	InstanceChanges int `json:"instanceChanges"`
	// Shards holds the per-zone solve stats when the daemon runs the
	// sharded coordinator (-shards); absent in flat mode.
	Shards []shard.Stats `json:"shards,omitempty"`
}

// CycleSnapshot is the compact per-cycle observation record retained in
// the daemon's ring-buffer history and served by GET /v1/metrics.
type CycleSnapshot struct {
	Cycle        int64              `json:"cycle"`
	Time         float64            `json:"time"`
	Changes      int                `json:"changes"`
	OmegaGMHz    float64            `json:"omegaGMHz"`
	BatchUtility float64            `json:"batchUtility"`
	WebUtilities map[string]float64 `json:"webUtilities,omitempty"`
	LiveJobs     int                `json:"liveJobs"`
	QueuedJobs   int                `json:"queuedJobs"`
	// ActiveNodes is the number of inventory nodes offering capacity
	// this cycle — the churn trajectory in one gauge. Deliberately not
	// omitempty: 0 active nodes is the value operators most need to see.
	ActiveNodes int    `json:"activeNodes"`
	Err         string `json:"err,omitempty"`
	// Infeasible marks a cycle whose plan failed because no feasible
	// placement exists (the cluster is overcommitted), as opposed to a
	// malformed problem. See core.ErrInfeasible.
	Infeasible bool `json:"infeasible,omitempty"`
	// ShardImbalance is the utilization spread across zones this cycle
	// (max − min), the shard-imbalance health signal; MaxShardUtilization
	// is the hottest zone. Both zero in flat mode.
	ShardImbalance      float64 `json:"shardImbalance,omitempty"`
	MaxShardUtilization float64 `json:"maxShardUtilization,omitempty"`
}

// HealthView is the GET /v1/healthz body. Status is truthful about the
// control loop: "recovering" while a WAL replay is rebuilding state
// after a restart (load balancers must not route to the daemon yet),
// "ok" while cycles plan successfully, "degraded" while an infeasible
// streak is active (the cluster cannot host the workload), and
// "failing" when the most recent cycle errored for any other reason.
// LastError carries the most recent cycle's error verbatim.
type HealthView struct {
	Status string `json:"status"`
	// Restarts counts recoveries from the durable state store (0 when
	// running from a fresh or absent state dir).
	Restarts     int     `json:"restarts,omitempty"`
	LastError    string  `json:"lastError,omitempty"`
	Now          float64 `json:"now"`
	CycleSeconds float64 `json:"cycleSeconds"`
	Cycles       int64   `json:"cycles"`
	WebApps      int     `json:"webApps"`
	LiveJobs     int     `json:"liveJobs"`
	// ActiveNodes counts inventory nodes offering capacity;
	// InfeasibleStreak counts consecutive infeasible cycles (0 when
	// healthy).
	ActiveNodes      int `json:"activeNodes"`
	InfeasibleStreak int `json:"infeasibleStreak,omitempty"`
	// StoreFailed carries the durable store's poison reason: nonempty
	// means the WAL refused further writes and acknowledged mutations
	// are no longer durable. Also exported as the labeled
	// dynplace_store_poisoned gauge on /v1/metrics/prom so it is
	// alertable, not only visible here and on GET /v1/state.
	StoreFailed string `json:"storeFailed,omitempty"`
}

// MetricsView is the GET /v1/metrics body: lifetime action counters, the
// router's per-application observations, and the retained cycle history.
type MetricsView struct {
	Now     float64        `json:"now"`
	Cycles  int64          `json:"cycles"`
	Actions map[string]int `json:"actions"`
	// InfeasibleCycles counts control cycles whose placement problem had
	// no feasible solution over the daemon's lifetime (the per-cycle
	// detail is the history entries' Infeasible flag).
	InfeasibleCycles int                     `json:"infeasibleCycles"`
	Router           map[string]router.Stats `json:"router"`
	History          []CycleSnapshot         `json:"history"`
	// InventoryVersion is the current node-inventory version and
	// NodeStates the node count per lifecycle state (active, draining,
	// failed) — the churn view operators alarm on.
	InventoryVersion int64          `json:"inventoryVersion"`
	NodeStates       map[string]int `json:"nodeStates"`
	// Shards is the latest cycle's per-zone stats when the daemon runs
	// the sharded coordinator; absent in flat mode.
	Shards []shard.Stats `json:"shards,omitempty"`
	// SystemMetrics inlines the durability gauges shared with the public
	// library API: uptimeCycles, restarts, replayDurationSeconds.
	dynplace.SystemMetrics
	// Durability is the full durable-state status (GET /v1/state serves the
	// same view); Enabled false means the daemon runs memory-only.
	Durability DurabilityView `json:"durability"`
}

// DurabilityView is the GET /v1/state body: whether a state store is
// configured, the recovery trajectory (restarts, replay duration,
// records replayed), and the store's compaction gauges (WAL size and
// sequence, last snapshot). WALErrors counts journal appends that
// failed — nonzero means acknowledged mutations may not survive a
// crash and the state dir needs attention.
type DurabilityView struct {
	Enabled    bool `json:"enabled"`
	Recovering bool `json:"recovering"`
	dynplace.SystemMetrics
	ReplayedRecords int `json:"replayedRecords"`
	// Cycles is the lifetime cycle count (across restarts);
	// SystemMetrics.UptimeCycles counts this process only.
	Cycles        int64 `json:"cycles"`
	SnapshotEvery int   `json:"snapshotEvery,omitempty"`
	WALErrors     int   `json:"walErrors"`
	// Store holds the state directory's gauges; zero when disabled.
	Store store.Info `json:"store"`
}
