package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/scheduler"
	"dynplace/internal/store"
)

// This file is the daemon's durability layer: journaling live mutations
// into the store's write-ahead log, folding state into snapshots, and
// Recover — the boot-time replay that reconstructs apps, jobs
// (CompletedWork and Rescues intact) and the node inventory at its
// recorded version after a crash or restart.
//
// A mutation is a record. Each public mutation validates its input,
// builds its store.Record and hands it to commitLocked, which journals
// the record and then applies it with applyRecordLocked — the function
// Recover replays it with. A live daemon and its replay therefore run
// the same code on the same records and differ only in the clock. Only
// the cycle record is replay-only: the live cycle computes what it
// summarizes.

// ErrStore reports a durable-state failure: the journal could not be
// written, so the mutation was refused and changed nothing. Unlike
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

// commitLocked journals one mutation record, appending it to the WAL
// with an fsync (a no-op without a store), and then applies it with
// applyRecordLocked, the code Recover replays it with. A journal
// failure returns ErrStore and applies nothing, because acknowledged
// state has to survive kill -9.
//
// Callers must first refuse every input the record's replay case
// rejects: a journaled record that applyRecordLocked then rejects would
// leave the state directory unbootable.
//
// dynplace:holds d.mu
func (d *Daemon) commitLocked(rec store.Record) error {
	if d.store != nil {
		if _, err := d.store.Append(rec); err != nil {
			d.walErrors++
			return fmt.Errorf("%w: journal: %w", ErrStore, err)
		}
	}
	return d.applyRecordLocked(rec)
}

// journalCycleLocked journals one control cycle, planned or failed, as
// its history entry h describes it: per-app rates and carried
// placements, every live job's runtime state, the jobs retired this
// cycle, lifetime action totals, and the published placement snapshot
// verbatim. Cycle records are best-effort — the control loop must keep
// running even with a failing state dir — so errors are counted and
// logged rather than propagated.
//
// dynplace:holds d.mu
func (d *Daemon) journalCycleLocked(h CycleSnapshot, live []*scheduler.Job, retired []dynplace.JobResult) {
	if d.store == nil {
		return
	}
	rec := store.Record{
		Time: h.Time,
		Op:   store.OpCycle,
		Cycle: &store.CycleRecord{
			Cycle:      h.Cycle,
			Time:       h.Time,
			Err:        h.Err,
			Infeasible: h.Infeasible,
			Completed:  retired,
			Actions:    d.actionTotalsLocked(),
		},
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
		d.cfg.Warnf("cycle %d: placement not journaled (durability degraded): %v", h.Cycle, err)
	}
	if _, err := d.store.Append(rec); err != nil {
		d.walErrors++
		d.cfg.Logf("cycle %d: journal failed (durability degraded): %v", h.Cycle, err)
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

	// Route as the live daemon did: the carried placement at the last
	// planned weights, before the first post-recovery cycle.
	d.publishRoutesLocked(d.Placement().Web)

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
	// so the next crash replays from here. Failure is survivable — the old
	// snapshot+WAL remain valid — so it degrades rather than aborts.
	if err := d.writeSnapshotLocked(); err != nil {
		d.walErrors++
		d.cfg.Logf("boot compaction failed (durability degraded): %v", err)
	}
	d.recovered.Store(true)
	return nil
}

// restoreSnapshotLocked rebuilds the daemon from a snapshot: the
// planner around the imported inventory, then apps and jobs through
// their records' cases, and what cycles left (job runtime, rates,
// carried placements, action totals, the cycle counter) through the
// cycle record's restore. Recover republishes the placement once replay
// has found the newest.
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
	cr := &store.CycleRecord{Cycle: st.Cycles, Actions: st.Actions}
	for i, a := range st.Apps {
		if err := d.applyRecordLocked(store.Record{Op: store.OpAddApp, App: &st.Apps[i]}); err != nil {
			return fmt.Errorf("app %q: %w", a.Spec.Name, err)
		}
		cr.Web = append(cr.Web, store.WebCycleState{Name: a.Spec.Name, ArrivalRate: a.Spec.ArrivalRate, Nodes: a.Placement})
	}
	for i, jr := range st.Jobs {
		if err := d.applyRecordLocked(store.Record{Op: store.OpSubmitJob, Job: &st.Jobs[i].Spec}); err != nil {
			return fmt.Errorf("job %q: %w", jr.Spec.Name, err)
		}
		cr.Jobs = append(cr.Jobs, store.NamedJobState{Name: jr.Spec.Name, JobState: jr.Runtime})
	}
	d.planner.RestoreJobNames(st.JobNames)
	for _, res := range st.Completed {
		d.completed.Push(res)
	}
	return d.restoreCycleStateLocked(cr)
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

// applyRecordLocked applies one WAL record: live, right after
// commitLocked journaled it, and on replay. The record's journaled time
// stands in for the clock, which replay has not realigned yet.
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
		if err := d.planner.AddWebApp(app); err != nil {
			return err
		}
		// A capacity-less routing entry: requests arriving before the
		// first cycle places the app are queued by overload protection
		// instead of bouncing as "unknown application".
		d.router.Update(app.Name, nil)
		sched := make([]control.LoadPhase, len(rec.App.Schedule))
		for i, ph := range rec.App.Schedule {
			sched[i] = control.LoadPhase(ph)
		}
		d.planner.ScheduleLoad(app.Name, sched)
		return nil
	case store.OpRemoveApp:
		d.planner.RemoveWebApp(rec.Name)
		d.router.Remove(rec.Name)
		return nil
	case store.OpSetLoad:
		d.planner.SetArrivalRate(rec.Name, rec.Rate)
		// Load reports are the forecaster's sensor stream; the journaled
		// timestamp rides along so replay rebuilds the estimator at the
		// same virtual instants.
		d.planner.ObserveLoad(rec.Name, rec.Rate, rec.Time)
		// A manual override supersedes any remaining scheduled phases.
		d.planner.ScheduleLoad(rec.Name, nil)
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
		n := rec.Node
		if err := d.planner.AddNode(cluster.Node{
			ID: cluster.NodeID(n.ID), Name: n.Name, CPUMHz: n.CPUMHz, MemMB: n.MemMB,
		}); err != nil {
			return err
		}
		d.restoreInventoryVersion(rec)
		d.cfg.Logf("node %s joined: %.0f MHz, %.0f MB (inventory v%d)",
			n.Name, n.CPUMHz, n.MemMB, d.planner.Inventory().Version())
		return nil
	case store.OpDrainNode, store.OpFailNode, store.OpRemoveNode:
		n, ok := d.planner.Inventory().ByName(rec.Name)
		if !ok {
			return fmt.Errorf("unknown node %q", rec.Name)
		}
		var err error
		what := "removed"
		switch rec.Op {
		case store.OpDrainNode:
			what = "draining"
			err = d.planner.DrainNode(n.ID)
		case store.OpFailNode:
			evicted := d.planner.FailNode(n.ID, rec.Time)
			what = fmt.Sprintf("failed: %d jobs awaiting rescue", len(evicted))
			// Withdraw the dead node from live dispatch weights right
			// away; the next cycle republishes the re-placed instances.
			d.publishRoutesLocked(d.Placement().Web)
		default:
			err = d.planner.RemoveNode(n.ID)
		}
		if err != nil {
			return err
		}
		d.restoreInventoryVersion(rec)
		d.cfg.Logf("node %s %s (inventory v%d)", rec.Name, what, d.planner.Inventory().Version())
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
// record's journaled post-op value. Node ops journal before they apply,
// so live this is a no-op; it keeps replay exact for WALs written by
// earlier daemons, whose adds applied first and, when the journal
// refused them, burned increments no record captured. Records from
// before the field existed carry 0 and are skipped.
//
// dynplace:holds d.mu
func (d *Daemon) restoreInventoryVersion(rec store.Record) {
	if rec.InventoryVersion > 0 {
		d.planner.Inventory().RestoreVersion(rec.InventoryVersion)
	}
}

// applyCycleLocked re-applies one journaled control cycle: the state it
// left, the load phases it consumed and the infeasible-cycle counter.
// The cycle's placement is Recover's to republish, if it is the newest.
//
// dynplace:holds d.mu
func (d *Daemon) applyCycleLocked(cr *store.CycleRecord) error {
	if err := d.restoreCycleStateLocked(cr); err != nil {
		return err
	}
	for _, w := range cr.Web {
		// The cycle consumed the load phases that had begun; its rate is
		// their effect.
		sched := d.planner.LoadSchedule(w.Name)
		d.planner.ScheduleLoad(w.Name, slices.DeleteFunc(sched, func(ph control.LoadPhase) bool { return ph.Start <= cr.Time }))
	}
	if cr.Infeasible {
		d.planner.RestoreInfeasibleCycles(d.planner.InfeasibleCycles() + 1)
	}
	return nil
}

// restoreCycleStateLocked reinstates what a cycle leaves behind, from a
// cycle record or a snapshot: job runtime states and retirements, rates
// and carried placements, action totals and the cycle counter.
//
// dynplace:holds d.mu
func (d *Daemon) restoreCycleStateLocked(cr *store.CycleRecord) error {
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
	for _, res := range cr.Completed {
		i, ok := byName[res.Name]
		if !ok {
			return fmt.Errorf("cycle %d: unknown completed job %q", cr.Cycle, res.Name)
		}
		jobs[i] = nil
		d.completed.Push(res)
	}
	d.planner.RestoreJobs(slices.DeleteFunc(jobs, func(j *scheduler.Job) bool { return j == nil }))
	for _, w := range cr.Web {
		d.planner.SetArrivalRate(w.Name, w.ArrivalRate)
		d.planner.RestoreWebPlacement(w.Name, intNodeIDs(w.Nodes))
	}
	for name, v := range cr.Actions {
		d.planner.Actions().Set(name, v)
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
