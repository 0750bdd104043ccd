// Package shard scales the placement controller past the single-problem
// limit: a Coordinator partitions the cluster into contiguous zones,
// runs one independent core placement solve per zone concurrently, and
// each cycle rebalances web applications and batch jobs across zones
// from the aggregated per-shard utilization and unmet demand of the
// previous cycle. A 10k-node cluster becomes N tractable sub-problems
// whose solves overlap in time, instead of one intractable flat problem.
//
// The decomposition trades a slice of global optimality for latency: an
// application is placed only within its assigned zone, so the solution
// space is a strict subset of the flat solver's. The rebalancer closes
// most of the gap by moving workloads toward headroom — placed work is
// sticky (moves cost suspends and migrations), queued work is fluid —
// and with a single shard the coordinator reproduces the flat solver's
// output bit for bit.
//
// Everything is deterministic for a fixed Config (Count, Seed) and
// cluster inventory: zone boundaries are a pure function of the node
// count, the rebalancer iterates in application order with seeded
// hashing only for first-touch spreading, and each zone's solve is the
// PR-2 optimizer, which is bit-identical at every Parallelism setting.
// Concurrency across zones therefore changes solve latency only, never
// the chosen placement.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dynplace/internal/cluster"
	"dynplace/internal/core"
)

// Config tunes the coordinator.
type Config struct {
	// Count is the number of zones the cluster is partitioned into.
	// Clusters smaller than Count get one zone per node. Count must be
	// at least 1; 1 reproduces the flat solver exactly.
	Count int
	// Seed drives the hash that spreads never-before-seen applications
	// across zones when several tie on headroom. Rebalancing is fully
	// deterministic for a fixed seed and zone layout.
	Seed int64
}

// ErrBadShards reports an invalid coordinator configuration.
var ErrBadShards = errors.New("shard: invalid configuration")

// Stats is one zone's slice of a cycle: capacity, assigned workload,
// solve outcome and the utilization/unmet-demand aggregate the next
// cycle's rebalancing decisions are made from. The daemon publishes it
// verbatim on /v1/placement and /v1/metrics.
type Stats struct {
	// Shard is the zone index; Nodes the zone's node count.
	Shard int `json:"shard"`
	Nodes int `json:"nodes"`
	// CPUMHz and MemMB are the zone's aggregate capacities.
	CPUMHz float64 `json:"cpuMHz"`
	MemMB  float64 `json:"memMB"`
	// WebApps and Jobs count the applications assigned to the zone this
	// cycle; Placed/Unplaced split them by whether the solve gave them
	// at least one instance.
	WebApps  int `json:"webApps"`
	Jobs     int `json:"jobs"`
	Placed   int `json:"placed"`
	Unplaced int `json:"unplaced"`
	// DemandMHz is the estimated CPU demand of the assigned
	// applications (the rebalancer's load model); AllocMHz is what the
	// solve actually granted. Utilization is AllocMHz/CPUMHz and
	// UnmetDemandMHz is max(0, DemandMHz−AllocMHz) — the imbalance
	// signal carried into the next cycle.
	DemandMHz      float64 `json:"demandMHz"`
	AllocMHz       float64 `json:"allocMHz"`
	Utilization    float64 `json:"utilization"`
	UnmetDemandMHz float64 `json:"unmetDemandMHz"`
	// MovesIn counts applications the rebalancer moved into this zone
	// this cycle (first-touch assignments excluded).
	MovesIn int `json:"movesIn"`
	// Candidates is the zone solve's placement-evaluation count.
	Candidates int `json:"candidates"`
	// SolveMillis is the zone solve's wall-clock latency. Shards run
	// concurrently, so the cycle's critical path is the slowest zone,
	// not the sum.
	SolveMillis float64 `json:"solveMillis"`
	// ColdRestart marks a zone whose carried placement had become
	// infeasible (e.g. after losing capacity) and was cleared before a
	// successful retry.
	ColdRestart bool `json:"coldRestart,omitempty"`
}

// Zone-move triggers: why the rebalancer assigned an application to a
// zone other than the one it would have kept by default.
const (
	// TriggerFirstTouch: the application had no recorded zone; the
	// seeded hash (or its last-run node) chose its first one.
	TriggerFirstTouch = "first_touch"
	// TriggerHeadroom: a queued application's remembered zone was worse
	// than the best zone by more than the stickiness threshold, so it
	// flowed to headroom.
	TriggerHeadroom = "headroom"
	// TriggerOverloadRelief: a zone past the overload ratio shed this
	// placed application to the zone with the most headroom.
	TriggerOverloadRelief = "overload_relief"
	// TriggerRepartition: the node set changed, zone boundaries moved,
	// and the application's instances now anchor it to a different zone
	// than the one recorded last cycle.
	TriggerRepartition = "repartition"
)

// Move records one zone-rebalance decision of a cycle: the application,
// the zone it left (-1 on first touch), the zone it was assigned to,
// and the trigger that caused the change. Unchanged assignments are not
// recorded.
type Move struct {
	App     string `json:"app"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Trigger string `json:"trigger"`
}

// Moves returns the zone-move records of the most recent Solve, in the
// deterministic order the rebalancer produced them.
func (c *Coordinator) Moves() []Move {
	out := make([]Move, len(c.lastMoves))
	copy(out, c.lastMoves)
	return out
}

// Coordinator is the sharded placement solver. It persists the
// application→zone assignment and the previous cycle's per-zone stats
// between Solve calls; drivers hold one coordinator for the lifetime of
// the control loop. A Coordinator is not safe for concurrent use —
// drivers serialize cycles exactly as they do for control.Planner.
type Coordinator struct {
	cfg Config
	// assign persists each application's zone across cycles, keyed by
	// name (the only identity stable across Problem rebuilds). Pruned to
	// the live application set every cycle.
	assign map[string]int
	// prev is the last cycle's per-zone stats; its utilization and
	// unmet-demand aggregates bias the next rebalancing pass.
	prev []Stats
	// prevFingerprint identifies the node set prev was computed for
	// (count plus per-position capacities — see clusterFingerprint).
	// When it changes (a node joined, failed or left), the zone shapes
	// shift, so the carried pressure no longer describes the new zones
	// and is dropped; the repartition itself falls out of newLayout,
	// which is a pure function of the current node count.
	prevFingerprint uint64
	// lastTimings is the most recent Solve's phase timing breakdown,
	// retained for the cycle tracer.
	lastTimings Timings
	// lastMoves is the most recent Solve's zone-move provenance (see
	// Move), retained for the planner's cycle explanation.
	lastMoves []Move
}

// Timings is the wall-clock phase breakdown of one Solve call,
// measured from Solve entry: the rebalance-and-partition prologue, the
// start offset of each zone's solve goroutine (zones overlap; the
// per-zone durations live in Stats.SolveMillis), and the merge/verify
// epilogue. Drivers turn it into trace spans.
type Timings struct {
	Rebalance time.Duration
	Merge     time.Duration
	ZoneStart []time.Duration
}

// Timings returns the phase breakdown of the most recent Solve.
func (c *Coordinator) Timings() Timings { return c.lastTimings }

// clusterFingerprint hashes the node set as the zone math sees it: the
// count and each dense position's name and CPU/memory capacity. A count
// check alone would miss equal-count churn (one node failed, one
// joined), where positions shift and the old per-zone pressure would be
// applied to repartitioned zones it never described; names are included
// because on a uniform fleet the capacities alone cannot tell a shifted
// membership from a stable one (inventory names are unique and never
// reused, so they identify membership exactly).
func clusterFingerprint(c *cluster.Cluster) uint64 {
	n := c.Len()
	size := 8
	for i := 0; i < n; i++ {
		nd, _ := c.Node(cluster.NodeID(i))
		size += len(nd.Name) + 17
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for i := 0; i < n; i++ {
		nd, _ := c.Node(cluster.NodeID(i))
		b = append(b, nd.Name...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nd.CPUMHz))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nd.MemMB))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// New validates the configuration and returns an empty coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("%w: shard count must be at least 1, got %d", ErrBadShards, cfg.Count)
	}
	return &Coordinator{cfg: cfg, assign: make(map[string]int)}, nil
}

// Assignments returns a copy of the current application→zone map.
func (c *Coordinator) Assignments() map[string]int {
	out := make(map[string]int, len(c.assign))
	for k, v := range c.assign {
		out[k] = v
	}
	return out
}

// Stats returns the per-zone stats of the most recent Solve.
func (c *Coordinator) Stats() []Stats {
	out := make([]Stats, len(c.prev))
	copy(out, c.prev)
	return out
}

// layout is the zone partition of one cluster: contiguous node ranges
// whose sizes differ by at most one. Contiguity keeps the partition
// stable when the node set shrinks by a few entries (a failed node
// shifts only its own zone's boundary, not every node's zone) and makes
// the local↔global node translation a pure offset.
type layout struct {
	count  int
	starts []int // len count+1; zone s covers [starts[s], starts[s+1])
}

func newLayout(nodes, count int) layout {
	if count > nodes {
		count = nodes
	}
	l := layout{count: count, starts: make([]int, count+1)}
	for s := 0; s <= count; s++ {
		l.starts[s] = s * nodes / count
	}
	return l
}

// zoneOf returns the zone owning the (dense, global) node index.
func (l layout) zoneOf(n cluster.NodeID) int {
	i := int(n)
	// starts are monotone with near-equal gaps, so the estimate is off
	// by at most one in either direction.
	s := i * l.count / l.starts[l.count]
	for s > 0 && i < l.starts[s] {
		s--
	}
	for s < l.count-1 && i >= l.starts[s+1] {
		s++
	}
	return s
}

// balanceTarget is the relative-performance level the demand model
// prices every application at. The controller equalizes utilities, so a
// uniform mid-range target yields zone loads proportional to what the
// solver will actually try to grant.
const balanceTarget = 0.5

// appDemand estimates one application's CPU appetite in MHz: the
// allocation that would carry it to the balance-target utility, capped
// by what it can consume.
func appDemand(a *core.Application, now float64) float64 {
	if a.Kind == core.KindWeb {
		d := a.Web.Demand(balanceTarget)
		if m := a.Web.MaxDemand(); d > m {
			d = m
		}
		return d
	}
	omega, _ := a.Job.RequiredSpeed(balanceTarget, a.Done, now)
	return omega
}

// hash64 is FNV-1a over the seed and name, the deterministic spreader
// for first-touch zone assignment.
func hash64(seed int64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}
