package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/router"
	"dynplace/internal/scheduler"
	"dynplace/internal/store"
)

// This file is the daemon's durability layer: journaling live mutations
// into the store's write-ahead log, folding state into snapshots, and
// Recover — the boot-time replay that reconstructs apps, jobs
// (CompletedWork and Rescues intact) and the node inventory at its
// recorded version after a crash or restart.

// ErrStore reports a durable-state failure: the journal could not be
// written, so the mutation was refused (or rolled back). Unlike
// ErrDaemon this is the server's fault and surfaces as HTTP 503.
var ErrStore = errors.New("daemon: durable state store unavailable")

// ErrRecovering reports a request received before boot-time recovery
// completed. It surfaces as HTTP 503 so load balancers that routed
// traffic early retry elsewhere instead of having the mutation
// acknowledged and then silently wiped by the replay.
var ErrRecovering = errors.New("daemon: recovering, durable state not rebuilt yet")

// gateLocked refuses mutations (and the cycle loop) on a durable daemon
// until Recover has run. A mutation accepted in that window would be
// journaled at the WAL tail and acknowledged, then Recover would rebuild
// memory from the records loaded at Open — which exclude it — and the
// boot compaction would write a snapshot whose sequence covers it,
// permanently dropping an acknowledged write. Recover on a fresh state
// directory is a cheap no-op, so the gate costs callers nothing beyond
// calling Recover before Start.
//
// dynplace:holds d.mu
func (d *Daemon) gateLocked() error {
	if !d.recovered.Load() {
		return fmt.Errorf("%w: call Recover before mutating a durable daemon", ErrRecovering)
	}
	return nil
}

// journalLocked appends one record to the WAL and fsyncs. It is a no-op
// without a store or while Recover is re-applying history. A non-nil
// error means the mutation must not be applied (or must
// be rolled back), because acknowledged state has to survive kill -9.
//
// dynplace:holds d.mu
func (d *Daemon) journalLocked(rec store.Record) error {
	if d.store == nil || d.replaying {
		return nil
	}
	if _, err := d.store.Append(rec); err != nil {
		d.walErrors++
		return fmt.Errorf("%w: journal: %w", ErrStore, err)
	}
	return nil
}

// journalCycleLocked journals one applied control cycle: per-app rates
// and carried placements, every live job's runtime state, the jobs
// retired this cycle, lifetime action totals, and the published
// placement snapshot verbatim. Cycle records are best-effort — the
// control loop must keep running even with a failing state dir — so
// errors are counted and logged rather than propagated.
//
// dynplace:holds d.mu
func (d *Daemon) journalCycleLocked(cycle int64, now float64, live []*scheduler.Job, retired []dynplace.JobResult, cycleErr error) {
	if d.store == nil || d.replaying {
		return
	}
	rec := store.Record{
		Time: now,
		Op:   store.OpCycle,
		Cycle: &store.CycleRecord{
			Cycle:     cycle,
			Time:      now,
			Completed: retired,
			Actions:   d.actionTotalsLocked(),
		},
	}
	if cycleErr != nil {
		rec.Cycle.Err = cycleErr.Error()
		rec.Cycle.Infeasible = d.infeasibleStreak > 0
	}
	for _, w := range d.planner.WebApps() {
		nodes, _ := d.planner.WebPlacement(w.Name)
		rec.Cycle.Web = append(rec.Cycle.Web, store.WebCycleState{
			Name:        w.Name,
			ArrivalRate: w.ArrivalRate,
			Nodes:       nodeIDInts(nodes),
		})
	}
	for _, j := range live {
		rec.Cycle.Jobs = append(rec.Cycle.Jobs, store.NamedJobState{
			Name: j.Spec.Name, JobState: j.State(),
		})
	}
	if enc, err := d.placement.Load().encoded(); err == nil {
		rec.Cycle.Placement = enc
	} else {
		// Recovery falls back to the previous record's placement.
		d.cfg.Warnf("cycle %d: placement not journaled (durability degraded): %v", cycle, err)
	}
	if _, err := d.store.Append(rec); err != nil {
		d.walErrors++
		d.cfg.Logf("cycle %d: journal failed (durability degraded): %v", cycle, err)
	}
}

// actionTotalsLocked copies the lifetime action counters into a map.
//
// dynplace:holds d.mu
func (d *Daemon) actionTotalsLocked() map[string]int {
	actions := d.planner.Actions()
	totals := make(map[string]int)
	for _, name := range actions.Names() {
		totals[name] = actions.Get(name)
	}
	return totals
}

// snapshotStateLocked assembles the full durable state at this instant.
//
// dynplace:holds d.mu
func (d *Daemon) snapshotStateLocked() (*store.State, error) {
	st := &store.State{
		Time:             d.clock().Now(),
		Cycles:           d.cycles.Load(),
		Restarts:         int(d.restarts.Load()),
		InfeasibleCycles: d.planner.InfeasibleCycles(),
		Inventory:        d.planner.Inventory().Export(),
		Actions:          d.actionTotalsLocked(),
		Completed:        d.completed.Snapshot(),
	}
	for _, w := range d.planner.WebApps() {
		nodes, _ := d.planner.WebPlacement(w.Name)
		app := store.AppState{Spec: dynplace.WebAppSpecOf(w), Placement: nodeIDInts(nodes)}
		for _, ph := range d.planner.LoadSchedule(w.Name) {
			app.Schedule = append(app.Schedule, dynplace.LoadPhase(ph))
		}
		st.Apps = append(st.Apps, app)
	}
	for _, j := range d.planner.Jobs() {
		st.Jobs = append(st.Jobs, store.JobRecord{
			Spec: dynplace.JobSpecOf(j.Spec), Runtime: j.State(),
		})
	}
	st.JobNames = d.planner.JobNames()
	enc, err := d.placement.Load().encoded()
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	st.Placement = enc
	return st, nil
}

// writeSnapshotLocked folds the current state into a snapshot and
// rotates the WAL.
//
// dynplace:holds d.mu
func (d *Daemon) writeSnapshotLocked() error {
	if d.store == nil {
		return fmt.Errorf("%w: no state store configured", ErrDaemon)
	}
	st, err := d.snapshotStateLocked()
	if err != nil {
		return err
	}
	if err := d.store.WriteSnapshot(st); err != nil {
		// Wrap as a durability outage (503), matching journalLocked: a
		// poisoned or failing state dir is the server's fault, and
		// monitoring keys on 503 for it.
		return fmt.Errorf("%w: snapshot: %w", ErrStore, err)
	}
	d.cfg.Logf("snapshot written: seq %d, %d bytes, t=%.1f",
		d.store.Info().SnapshotSeq, d.store.Info().SnapshotBytes, st.Time)
	return nil
}

// SnapshotNow writes a compacting snapshot immediately — the handler
// behind POST /v1/state/snapshot and the final act of a graceful Shutdown.
func (d *Daemon) SnapshotNow() (store.Info, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Before Recover the in-memory state is empty while the store's
	// sequence covers the loaded history: snapshotting now would stamp
	// that emptiness over everything the WAL holds.
	if err := d.gateLocked(); err != nil {
		return store.Info{}, err
	}
	if err := d.writeSnapshotLocked(); err != nil {
		return store.Info{}, err
	}
	return d.store.Info(), nil
}

// Shutdown performs the graceful exit: stop the cycle loop, flush the
// store with a final snapshot, and close it. The daemon refuses further
// journaled mutations afterwards.
func (d *Daemon) Shutdown() error {
	d.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store == nil {
		return nil
	}
	if !d.recovered.Load() {
		// Shut down before Recover ever ran (e.g. a SIGTERM during a slow
		// boot): the in-memory state is empty, so a final snapshot would
		// overwrite the durable history. Close without compacting — the
		// state dir still holds everything the previous generation wrote.
		return d.store.Close()
	}
	serr := d.writeSnapshotLocked()
	cerr := d.store.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Recover replays the state store — snapshot first, then the WAL tail —
// rebuilding apps, jobs and the node inventory exactly as journaled,
// then rescues jobs that were running when the previous process died
// and resumes the virtual clock from the last recorded instant
// (wall-clock downtime does not pass in virtual time, so deadlines are
// not charged for the outage). It must be called before Start; while it
// runs, Health reports "recovering" so load balancers keep traffic away
// until the state is rebuilt. A successful recovery ends with a boot
// compaction: the replayed WAL is folded into a fresh snapshot.
func (d *Daemon) Recover() error {
	if d.store == nil {
		return nil
	}
	st, recs, err := d.store.Load()
	if err != nil {
		return err
	}
	if st == nil && len(recs) == 0 {
		// Fresh state directory: nothing to replay, but the gate opens —
		// mutations are refused between New and Recover.
		d.recovered.Store(true)
		return nil
	}
	d.recovering.Store(true)
	defer d.recovering.Store(false)
	//dynplace:ignore clockhygiene replay-duration telemetry; virtual time resumes via the offset clock, this only feeds GET /v1/state
	begin := time.Now()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return fmt.Errorf("%w: Recover must precede Start", ErrDaemon)
	}
	d.replaying = true
	defer func() { d.replaying = false }()

	// Only the newest journaled placement describes what is deployed, so
	// replay remembers it and decodes it once, after the loop. A
	// superseded placement is never served; the store has already
	// checked it as one valid JSON value under its frame's CRC.
	lastTime := 0.0
	var newest store.Placement
	var newestRec *store.Record // nil: the snapshot's placement
	if st != nil {
		if err := d.restoreSnapshotLocked(st); err != nil {
			return fmt.Errorf("%w: snapshot: %w", ErrDaemon, err)
		}
		lastTime = st.Time
		newest = st.Placement
	}
	for i, rec := range recs {
		if err := d.applyRecordLocked(rec); err != nil {
			return fmt.Errorf("%w: replay seq %d (%s): %w", ErrDaemon, rec.Seq, rec.Op, err)
		}
		if rec.Time > lastTime {
			lastTime = rec.Time
		}
		if rec.Op == store.OpCycle && rec.Cycle.Placement.Bytes() != nil {
			newest, newestRec = rec.Cycle.Placement, &recs[i]
		}
	}
	if err := d.restorePlacementLocked(newest); err != nil {
		if newestRec == nil {
			return fmt.Errorf("%w: snapshot: %w", ErrDaemon, err)
		}
		return fmt.Errorf("%w: replay seq %d (%s): %w", ErrDaemon, newestRec.Seq, newestRec.Op, err)
	}

	// Rescue jobs that were running (or parked) when the process died:
	// whatever executed them did not survive the controller, so they
	// requeue suspended with progress intact and the Evicted mark — the
	// first post-recovery cycle re-places them as rescues, exactly like
	// a node failure.
	rescued := d.planner.EvictPlaced()

	// Rebuild live dispatch weights from the restored placement so
	// requests route correctly before the first post-recovery cycle.
	for _, w := range d.Placement().Web {
		ins := make([]router.Instance, 0, len(w.Instances))
		for _, in := range w.Instances {
			ins = append(ins, router.Instance{Node: in.Node, PowerMHz: in.PowerMHz})
		}
		d.router.Update(w.Name, ins)
	}

	// Resume virtual time at the last recorded instant.
	if off := lastTime - d.clock().Now(); off > 0 {
		d.setClock(&offsetClock{inner: d.cfg.Clock, offset: off})
	}
	prior := 0
	if st != nil {
		prior = st.Restarts
	}
	d.restarts.Store(int64(prior) + 1)
	d.baseCycles = d.cycles.Load()
	d.replayedRecords = len(recs)
	d.replayDuration = time.Since(begin) //dynplace:ignore clockhygiene replay-duration telemetry; never feeds placement
	d.cfg.Logf("recovered %d apps, %d jobs, inventory v%d at t=%.1f: snapshot+%d records in %v (restart #%d), %d jobs rescued",
		len(d.planner.WebApps()), len(d.planner.Jobs()), d.planner.Inventory().Version(),
		lastTime, len(recs), d.replayDuration.Round(time.Millisecond), d.restarts.Load(), rescued)

	// Boot compaction: fold what we just replayed into a fresh snapshot
	// so the next crash replays from here. replaying is still true, but
	// snapshots bypass the journal. Failure is survivable — the old
	// snapshot+WAL remain valid — so it degrades rather than aborts.
	if err := d.writeSnapshotLocked(); err != nil {
		d.walErrors++
		d.cfg.Logf("boot compaction failed (durability degraded): %v", err)
	}
	d.recovered.Store(true)
	return nil
}

// restoreSnapshotLocked rebuilds the daemon from a snapshot: the
// planner around the imported inventory, apps with carried placements,
// jobs with runtime state, results and counters. Recover republishes
// the placement once replay has found the newest.
//
// dynplace:holds d.mu
func (d *Daemon) restoreSnapshotLocked(st *store.State) error {
	inv, err := cluster.ImportInventory(st.Inventory)
	if err != nil {
		return err
	}
	planner, err := control.RestorePlanner(inv, d.cfg.Costs, d.cfg.Dynamic)
	if err != nil {
		return err
	}
	d.planner = planner
	d.planner.RestoreInfeasibleCycles(st.InfeasibleCycles)
	for _, a := range st.Apps {
		app, err := dynplace.CompileWebApp(a.Spec)
		if err != nil {
			return fmt.Errorf("app %q: %w", a.Spec.Name, err)
		}
		if err := d.applyAddApp(app, a.Schedule); err != nil {
			return err
		}
		d.planner.RestoreWebPlacement(app.Name, intNodeIDs(a.Placement))
	}
	jobs := make([]*scheduler.Job, 0, len(st.Jobs))
	for _, jr := range st.Jobs {
		spec, err := dynplace.CompileJob(jr.Spec)
		if err != nil {
			return fmt.Errorf("job %q: %w", jr.Spec.Name, err)
		}
		j, err := scheduler.RestoreJob(spec, jr.Runtime)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	d.planner.RestoreJobs(jobs)
	d.planner.RestoreJobNames(st.JobNames)
	for _, res := range st.Completed {
		d.completed.Push(res)
	}
	for name, v := range st.Actions {
		d.planner.Actions().Set(name, v)
	}
	d.cycles.Store(st.Cycles)
	return nil
}

// restorePlacementLocked republishes a journaled placement snapshot,
// with the journaled bytes as its encoding, and the health state
// derived from it. The zero Placement (nothing journaled) leaves the
// published placement as it is.
//
// dynplace:holds d.mu
func (d *Daemon) restorePlacementLocked(enc store.Placement) error {
	if enc.Bytes() == nil {
		return nil
	}
	var snap PlacementSnapshot
	if err := json.Unmarshal(enc.Bytes(), &snap); err != nil {
		return fmt.Errorf("placement snapshot: %w", err)
	}
	d.placement.Store(restored(&snap, enc))
	d.infeasibleStreak = snap.InfeasibleStreak
	return nil
}

// applyRecordLocked re-applies one WAL record. The record's journaled
// time stands in for the clock, which has not been realigned yet.
//
// dynplace:holds d.mu
func (d *Daemon) applyRecordLocked(rec store.Record) error {
	switch rec.Op {
	case store.OpAddApp:
		if rec.App == nil {
			return fmt.Errorf("missing app payload")
		}
		app, err := dynplace.CompileWebApp(rec.App.Spec)
		if err != nil {
			return err
		}
		return d.applyAddApp(app, rec.App.Schedule)
	case store.OpRemoveApp:
		d.applyRemoveApp(rec.Name)
		return nil
	case store.OpSetLoad:
		d.applySetLoad(rec.Name, rec.Rate, rec.Time)
		return nil
	case store.OpSubmitJob:
		if rec.Job == nil {
			return fmt.Errorf("missing job payload")
		}
		spec, err := dynplace.CompileJob(*rec.Job)
		if err != nil {
			return err
		}
		_, err = d.planner.Submit(spec)
		return err
	case store.OpAddNode:
		if rec.Node == nil {
			return fmt.Errorf("missing node payload")
		}
		// Restore under the journaled ID rather than re-allocating: the
		// live inventory may have burned IDs that no record captured
		// (an add rolled back on journal failure), and replay must
		// still land every node exactly where consumers recorded it.
		if err := d.planner.Inventory().RestoreAdd(cluster.Node{
			Name: rec.Node.Name, CPUMHz: rec.Node.CPUMHz, MemMB: rec.Node.MemMB,
		}, cluster.NodeID(rec.Node.ID)); err != nil {
			return err
		}
		// Rolled-back adds burn version increments no record captures;
		// the journaled post-op version resynchronizes the counter.
		d.restoreInventoryVersion(rec)
		return nil
	case store.OpDrainNode:
		if _, err := d.planner.Inventory().Drain(rec.Name); err != nil {
			return err
		}
		d.restoreInventoryVersion(rec)
		return nil
	case store.OpFailNode:
		d.applyFailNode(rec.Name, rec.Time)
		d.restoreInventoryVersion(rec)
		return nil
	case store.OpRemoveNode:
		n, ok := d.planner.Inventory().ByName(rec.Name)
		if !ok {
			return fmt.Errorf("unknown node %q", rec.Name)
		}
		if err := d.planner.RemoveNode(n.ID); err != nil {
			return err
		}
		d.restoreInventoryVersion(rec)
		return nil
	case store.OpCycle:
		if rec.Cycle == nil {
			return fmt.Errorf("missing cycle payload")
		}
		return d.applyCycleLocked(rec.Cycle)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// restoreInventoryVersion fast-forwards the inventory version to a node
// record's journaled post-op value, keeping InventoryVersion consistent
// across restarts even when live mutation burned increments no record
// captured (an add rolled back on journal failure). Records from before
// the field existed carry 0 and are skipped.
//
// dynplace:holds d.mu
func (d *Daemon) restoreInventoryVersion(rec store.Record) {
	if rec.InventoryVersion > 0 {
		d.planner.Inventory().RestoreVersion(rec.InventoryVersion)
	}
}

// applyCycleLocked re-applies one journaled control cycle: job runtime
// states, retirements, rates, carried placements and counters. The
// cycle's placement is Recover's to republish, if it is the newest.
//
// dynplace:holds d.mu
func (d *Daemon) applyCycleLocked(cr *store.CycleRecord) error {
	jobs := d.planner.Jobs()
	byName := make(map[string]int, len(jobs))
	for i, j := range jobs {
		byName[j.Spec.Name] = i
	}
	for _, js := range cr.Jobs {
		i, ok := byName[js.Name]
		if !ok {
			return fmt.Errorf("cycle %d: unknown job %q", cr.Cycle, js.Name)
		}
		j, err := scheduler.RestoreJob(jobs[i].Spec, js.JobState)
		if err != nil {
			return err
		}
		jobs[i] = j
	}
	keep := jobs[:0]
	for _, res := range cr.Completed {
		i, ok := byName[res.Name]
		if !ok {
			return fmt.Errorf("cycle %d: unknown completed job %q", cr.Cycle, res.Name)
		}
		jobs[i] = nil
		d.completed.Push(res)
	}
	for _, j := range jobs {
		if j != nil {
			keep = append(keep, j)
		}
	}
	d.planner.RestoreJobs(keep)
	for _, w := range cr.Web {
		d.planner.SetArrivalRate(w.Name, w.ArrivalRate)
		d.planner.RestoreWebPlacement(w.Name, intNodeIDs(w.Nodes))
	}
	for name, v := range cr.Actions {
		d.planner.Actions().Set(name, v)
	}
	if cr.Infeasible {
		d.planner.RestoreInfeasibleCycles(d.planner.InfeasibleCycles() + 1)
	}
	d.cycles.Store(cr.Cycle)
	return nil
}

// Durability reports the daemon's durable-state status — the GET /v1/state
// body, also embedded in /v1/metrics.
func (d *Daemon) Durability() DurabilityView {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durabilityLocked()
}

// durabilityLocked assembles the durability view from WAL state.
//
// dynplace:holds d.mu
func (d *Daemon) durabilityLocked() DurabilityView {
	v := DurabilityView{
		Enabled:    d.store != nil,
		Recovering: d.recovering.Load() || !d.recovered.Load(),
		SystemMetrics: dynplace.SystemMetrics{
			UptimeCycles:          d.cycles.Load() - d.baseCycles,
			Restarts:              int(d.restarts.Load()),
			ReplayDurationSeconds: d.replayDuration.Seconds(),
		},
		ReplayedRecords: d.replayedRecords,
		Cycles:          d.cycles.Load(),
		SnapshotEvery:   d.snapshotEvery,
		WALErrors:       d.walErrors,
	}
	if d.store != nil {
		v.Store = d.store.Info()
	}
	return v
}

func nodeIDInts(ids []cluster.NodeID) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func intNodeIDs(ids []int) []cluster.NodeID {
	out := make([]cluster.NodeID, len(ids))
	for i, id := range ids {
		out[i] = cluster.NodeID(id)
	}
	return out
}
