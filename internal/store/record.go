package store

import (
	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/scheduler"
)

// SchemaVersion is the on-disk schema version stamped into every WAL
// record and snapshot. Readers refuse newer versions (a downgrade would
// silently drop fields); older versions are upgraded in place when the
// schema evolves.
const SchemaVersion = 1

// Op names one daemon mutation class in the write-ahead log. The values
// are part of the on-disk schema: never renumber or reuse them.
type Op string

// WAL operation types.
const (
	// OpAddApp registers a web application (Record.App).
	OpAddApp Op = "add-app"
	// OpRemoveApp deregisters the web application named Record.Name.
	OpRemoveApp Op = "remove-app"
	// OpSetLoad updates Record.Name's arrival rate to Record.Rate.
	OpSetLoad Op = "set-load"
	// OpSubmitJob submits a batch job (Record.Job).
	OpSubmitJob Op = "submit-job"
	// OpAddNode registers an inventory node (Record.Node). The record
	// carries the ID the live inventory assigned so replay can verify it
	// reproduces the same numbering.
	OpAddNode Op = "add-node"
	// OpDrainNode / OpFailNode / OpRemoveNode transition the inventory
	// node named Record.Name.
	OpDrainNode  Op = "drain-node"
	OpFailNode   Op = "fail-node"
	OpRemoveNode Op = "remove-node"
	// OpCycle records one applied control cycle (Record.Cycle): job
	// progress and placement deltas, completions, and the published
	// placement snapshot.
	OpCycle Op = "cycle"
)

// Record is one journaled daemon mutation. Exactly one payload field is
// set, selected by Op. Seq and V are assigned by Store.Append.
//
// Workload specs are journaled in the library's public JSON spec types
// (dynplace.WebAppSpec, dynplace.JobSpec) with all times already
// resolved to absolute virtual seconds, so the on-disk schema is the
// same one the HTTP API speaks and replay never re-interprets
// relative-time submissions.
type Record struct {
	V    int     `json:"v"`
	Seq  uint64  `json:"seq"`
	Time float64 `json:"time"`
	Op   Op      `json:"op"`

	// App is the OpAddApp payload.
	App *AppState `json:"app,omitempty"`
	// Name identifies the target of remove/set-load and node ops.
	Name string `json:"name,omitempty"`
	// Rate is the OpSetLoad payload.
	Rate float64 `json:"rate,omitempty"`
	// Job is the OpSubmitJob payload, with absolute times.
	Job *dynplace.JobSpec `json:"job,omitempty"`
	// Node is the OpAddNode payload.
	Node *cluster.InventoryNodeSnapshot `json:"node,omitempty"`
	// InventoryVersion is the post-op inventory version for the node ops
	// (OpAddNode, OpDrainNode, OpFailNode, OpRemoveNode). Replay restores
	// it alongside the op so consumers that key decisions on
	// InventoryVersion see the same numbering across a restart even when
	// the live inventory burned increments no record captured (an add
	// rolled back on journal failure bumps the version twice).
	InventoryVersion int64 `json:"inventoryVersion,omitempty"`
	// Cycle is the OpCycle payload. It must stay the last field: Append
	// splices the cycle's placement in before the record's closing brace.
	Cycle *CycleRecord `json:"cycle,omitempty"`
}

// AppState is a web application's durable state: its spec (with the
// current arrival rate and any remaining absolute-time load phases) and
// the carried placement the optimizer's change-resistance depends on.
type AppState struct {
	Spec dynplace.WebAppSpec `json:"spec"`
	// Schedule is the not-yet-applied tail of the load schedule, with
	// absolute phase times.
	Schedule []dynplace.LoadPhase `json:"schedule,omitempty"`
	// Placement is the carried web placement as inventory node IDs.
	Placement []int `json:"placement,omitempty"`
}

// JobRecord pairs a job's immutable spec with its mutable runtime state.
type JobRecord struct {
	Spec    dynplace.JobSpec   `json:"spec"`
	Runtime scheduler.JobState `json:"runtime"`
}

// NamedJobState is one live job's runtime state inside a cycle record.
type NamedJobState struct {
	Name               string `json:"name"`
	scheduler.JobState        // inlined
}

// WebCycleState is one web app's per-cycle durable delta: the arrival
// rate the cycle planned against and the placement it carried forward.
type WebCycleState struct {
	Name        string  `json:"name"`
	ArrivalRate float64 `json:"arrivalRate"`
	Nodes       []int   `json:"nodes,omitempty"`
}

// CycleRecord journals one applied control cycle: everything the cycle
// mutated that replay must reproduce. Failed cycles are journaled too
// (Err set) because even a failed cycle retires completed jobs and
// advances the cycle counter.
type CycleRecord struct {
	Cycle int64   `json:"cycle"`
	Time  float64 `json:"time"`
	Err   string  `json:"err,omitempty"`
	// Infeasible marks a cycle that failed for lack of a feasible
	// placement; replay uses it to rebuild the infeasible-cycle counter.
	Infeasible bool `json:"infeasible,omitempty"`
	// Web carries per-app rate and carried placement; Jobs the runtime
	// state of every live job after the cycle's assignments were applied.
	Web  []WebCycleState `json:"web,omitempty"`
	Jobs []NamedJobState `json:"jobs,omitempty"`
	// Completed lists jobs retired into the results ring this cycle.
	Completed []dynplace.JobResult `json:"completed,omitempty"`
	// Actions holds the lifetime action-counter totals after this cycle
	// (totals, not deltas, so replay is idempotent).
	Actions map[string]int `json:"actions,omitempty"`
	// Placement is the published placement snapshot, opaque to the
	// store (the daemon owns the type). Restoring it verbatim is what
	// makes GET /v1/placement identical across a kill/replay round trip.
	// It must stay the last field: Append splices its bytes in last.
	Placement Placement `json:"placement"`
}

// State is a full daemon snapshot: the compaction point the WAL replays
// on top of. Seq is the last WAL sequence number the snapshot covers;
// records at or below it are skipped during recovery.
type State struct {
	V   int    `json:"v"`
	Seq uint64 `json:"seq"`
	// Time is the virtual-time instant the snapshot describes; recovery
	// resumes the daemon clock from it (wall-clock downtime does not
	// pass in virtual time).
	Time float64 `json:"time"`
	// Cycles is the lifetime control-cycle count; Restarts how many
	// recoveries preceded this state; InfeasibleCycles and
	// InfeasibleStreak mirror the planner's health counters.
	Cycles           int64 `json:"cycles"`
	Restarts         int   `json:"restarts"`
	InfeasibleCycles int   `json:"infeasibleCycles,omitempty"`

	Apps []AppState  `json:"apps,omitempty"`
	Jobs []JobRecord `json:"jobs,omitempty"`
	// JobNames is every job name ever submitted (the duplicate-submission
	// guard survives restarts even after results are pruned).
	JobNames  []string                  `json:"jobNames,omitempty"`
	Completed []dynplace.JobResult      `json:"completed,omitempty"`
	Inventory cluster.InventorySnapshot `json:"inventory"`
	Actions   map[string]int            `json:"actions,omitempty"`
	// Placement is the last published placement snapshot, opaque to the
	// store. It must stay the last field: WriteSnapshot splices its
	// bytes in last.
	Placement Placement `json:"placement"`
}

// Placement is a published placement's JSON encoding, opaque to the
// store. Its bytes come from only two places: PlacementOf, whose caller
// guarantees they are byte for byte what json.Marshal makes of the
// placement, and the decode of a record or snapshot that Open has read,
// which json.Unmarshal has already validated. So they are always one
// valid JSON value, and Append and WriteSnapshot copy them into the
// frame as they are instead of scanning them again, as json.Marshal
// does with a json.RawMessage. The zero Placement is no placement: the
// record carries no placement field.
type Placement struct{ b []byte }

// PlacementOf wraps a placement's encoding without checking it: the
// caller guarantees b is exactly what json.Marshal makes of the
// placement, and does not modify it afterwards. A scan of b here would
// cost as much as the encode it stands in for.
func PlacementOf(b []byte) Placement { return Placement{b: b} }

// Bytes returns the encoding, nil for the zero Placement. The caller
// must not modify it.
func (p Placement) Bytes() []byte { return p.b }

// MarshalJSON returns the encoding, or null for the zero Placement, so
// json.Marshal encodes a record outside the store as it would with a
// json.RawMessage. Append and WriteSnapshot do not call it: they frame
// the bytes themselves.
func (p Placement) MarshalJSON() ([]byte, error) {
	if p.b == nil {
		return []byte("null"), nil
	}
	return p.b, nil
}

// UnmarshalJSON keeps a copy of data; null is the zero Placement. It
// is for encoding/json, which calls it only with data it has already
// checked is one valid JSON value.
func (p *Placement) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*p = Placement{}
		return nil
	}
	p.b = append([]byte(nil), data...)
	return nil
}
