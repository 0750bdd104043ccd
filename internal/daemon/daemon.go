// Package daemon hosts the application placement controller as a
// long-running service: the control loop from internal/control runs on a
// clock tick instead of a simulation schedule, workloads arrive over an
// HTTP API instead of a pre-registered trace, and each cycle's placement
// is swapped in atomically and republished to the request router as
// dispatch weights.
//
// The daemon is clock-agnostic (see Clock): under a WallClock it is the
// production dynplaced process; under a SimClock the identical code path
// — HTTP handlers included — runs deterministically in tests, which is
// how the control behavior validated against the paper's simulations
// carries over unchanged to live operation.
package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/core"
	"dynplace/internal/forecast"
	"dynplace/internal/metrics"
	"dynplace/internal/router"
	"dynplace/internal/scheduler"
	"dynplace/internal/shard"
	"dynplace/internal/store"
	"dynplace/internal/txn"
)

// Config describes a daemon instance.
type Config struct {
	// Cluster is the managed hardware inventory.
	Cluster *cluster.Cluster
	// CycleSeconds is the control cycle length T.
	CycleSeconds float64
	// Costs is the placement-action cost model (zero value = free).
	Costs cluster.CostModel
	// Dynamic tunes the placement optimizer.
	Dynamic control.DynamicConfig
	// Clock is the time source (default: a new WallClock).
	Clock Clock
	// QueueCap bounds each application's overload-protection queue in
	// the request router: positive sets the depth, 0 selects the default
	// of 128, and negative disables queuing so capacity-less requests
	// are rejected immediately.
	QueueCap int
	// History is the number of per-cycle snapshots retained for the
	// metrics endpoint (default 512).
	History int
	// RetainJobs is the number of completed job results kept for the
	// jobs endpoint (default 1024). Completed jobs are pruned from the
	// control loop's working set so daemon memory and per-cycle work
	// stay bounded under a steady submission stream.
	RetainJobs int
	// Logf, when set, receives one summary line per control cycle.
	Logf func(format string, args ...any)
	// Warnf, when set, receives warning-level lines (slow cycles,
	// degraded durability). Defaults to Logf.
	Warnf func(format string, args ...any)
	// SlowCycleWarn is the wall-clock duration in seconds past which a
	// control cycle logs a warning, increments the slow-cycle counter
	// and arms the CPU-profile auto-capture. 0 selects the default of
	// 0.8×CycleSeconds; negative disables the warning. A positive value
	// at or above CycleSeconds is rejected: such a threshold could never
	// fire before the next cycle is already due, so it silently disables
	// the warning the operator thought they configured.
	SlowCycleWarn float64
	// TraceCycles is how many recent cycle span-timelines the tracer
	// retains for GET /v1/debug/cycles (default 64).
	TraceCycles int
	// ExplainHistory is how many per-cycle decision explanations the
	// flight recorder retains for GET /v1/explain (default 128).
	ExplainHistory int
	// Store, when set, makes the daemon durable: every mutating API call
	// and every applied cycle is journaled to the write-ahead log, and
	// Recover replays it after a crash. The daemon takes ownership: a
	// graceful Shutdown writes a final snapshot and closes the store.
	Store *store.Store
	// SnapshotEvery is the compaction cadence in cycles: every Nth cycle
	// the WAL is folded into a fresh snapshot (default 64; negative
	// disables periodic snapshots — boot, shutdown and the snapshot
	// endpoint still compact).
	SnapshotEvery int
}

// ErrDaemon reports an invalid daemon configuration or request.
var ErrDaemon = errors.New("daemon: invalid configuration or request")

// ErrNotFound reports an operation on a workload the daemon does not
// know (HTTP 404, as opposed to ErrDaemon's 400).
var ErrNotFound = errors.New("daemon: not found")

// Daemon is the live control-loop runtime. All its methods are safe for
// concurrent use; the HTTP handlers are thin wrappers over them.
type Daemon struct {
	cfg Config
	// clockP holds the active Clock. It is swapped exactly once, by
	// Recover, for an offset clock that resumes recovered virtual time;
	// the pointer is atomic because health probes read the clock
	// lock-free while recovery may still be running.
	clockP atomic.Pointer[Clock]

	store *store.Store
	// snapshotEvery is the periodic compaction cadence (0 = disabled).
	snapshotEvery int
	// walErrors counts journal appends that failed; mutations are
	// refused on failure, but cycle records are best-effort (the loop
	// must keep running), so a nonzero count means durability is
	// degraded and is surfaced by GET /v1/state.
	walErrors int
	// replayDuration, replayedRecords and baseCycles describe the last
	// Recover: how long replay took, how many WAL records it applied,
	// and the cycle counter value at process start (UptimeCycles is
	// measured from it).
	replayDuration  time.Duration
	replayedRecords int
	baseCycles      int64

	mu sync.Mutex
	// planner is the control-loop state machine: web apps and their
	// load phases, the job ledger, action counters, node inventory.
	// dynplace:guardedby mu
	planner *control.Planner
	// router is set once by New and never reassigned; the Router's own
	// lock-free dataplane makes the pointer safe to use without d.mu
	// (Dispatch runs on the request path, outside any daemon lock).
	router *router.Router
	// completed retains finished-job results.
	// dynplace:guardedby mu
	completed *metrics.Ring[dynplace.JobResult]
	// history is the bounded per-cycle snapshot ring.
	// dynplace:guardedby mu
	history *metrics.Ring[CycleSnapshot]
	// explain is the decision-provenance flight recorder: one record
	// per cycle, bounded, served on GET /v1/explain and folded into the
	// debug bundle.
	// dynplace:guardedby mu
	explain *metrics.Ring[ExplainRecord]
	// running reports whether the tick chain is live.
	// dynplace:guardedby mu
	running bool
	// runGen invalidates ticks from a previous Start.
	// dynplace:guardedby mu
	runGen int
	// cancelTick stops the pending tick callback.
	// dynplace:guardedby mu
	cancelTick func() bool
	// infeasibleStreak counts consecutive cycles whose planning failed
	// with core.ErrInfeasible; it resets to zero when a cycle succeeds
	// and is published on every snapshot so /v1/healthz can report a
	// degraded state truthfully.
	// dynplace:guardedby mu
	infeasibleStreak int

	// cycles and placement are written under mu but read lock-free so
	// /v1/healthz and /v1/placement never wait out an optimization pass;
	// recovering, recovered and restarts are lock-free for the same
	// reason (the health endpoint reports "recovering" while replay
	// holds mu).
	cycles     atomic.Int64
	placement  atomic.Pointer[published]
	recovering atomic.Bool
	// recovered gates mutations on a durable daemon: until Recover has
	// completed, accepting a mutation would journal and acknowledge it,
	// then the replay would wipe it from memory and the boot compaction
	// would drop it from disk. It is true from construction when no
	// store is configured.
	recovered atomic.Bool
	restarts  atomic.Int64

	// obs is the observability surface: Prometheus registry, cycle
	// tracer and the pre-registered instruments. Built once by New;
	// the instruments themselves are atomics, so runCycle records into
	// them under d.mu without lock-ordering obligations.
	obs *obsState
}

// clock returns the active time source.
func (d *Daemon) clock() Clock { return *d.clockP.Load() }

func (d *Daemon) setClock(c Clock) { d.clockP.Store(&c) }

// New validates the configuration and builds a stopped daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Cluster == nil || cfg.Cluster.Len() == 0 {
		return nil, fmt.Errorf("%w: empty cluster", ErrDaemon)
	}
	if cfg.CycleSeconds <= 0 {
		return nil, fmt.Errorf("%w: cycle must be positive", ErrDaemon)
	}
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}
	switch {
	case cfg.QueueCap == 0:
		cfg.QueueCap = 128
	case cfg.QueueCap < 0:
		cfg.QueueCap = 0 // router treats 0 as queuing disabled
	}
	if cfg.History <= 0 {
		cfg.History = 512
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Warnf == nil {
		cfg.Warnf = cfg.Logf
	}
	if cfg.SlowCycleWarn == 0 {
		cfg.SlowCycleWarn = 0.8 * cfg.CycleSeconds
	}
	if cfg.SlowCycleWarn >= cfg.CycleSeconds {
		return nil, fmt.Errorf("%w: slow-cycle threshold %.3fs must be below the cycle length %.3fs (negative disables, 0 selects 80%% of the cycle)",
			ErrDaemon, cfg.SlowCycleWarn, cfg.CycleSeconds)
	}
	if cfg.TraceCycles <= 0 {
		cfg.TraceCycles = 64
	}
	if cfg.ExplainHistory <= 0 {
		cfg.ExplainHistory = 128
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	// The flight recorder is always on: the explanation pass is one
	// post-hoc sweep per cycle, never per candidate, so there is no flag
	// to discover mid-incident.
	cfg.Dynamic.Explain = true
	planner, err := control.NewPlanner(cfg.Cluster, cfg.Costs, cfg.Dynamic)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		store:     cfg.Store,
		planner:   planner,
		router:    router.New(cfg.QueueCap),
		completed: metrics.NewRing[dynplace.JobResult](cfg.RetainJobs),
		history:   metrics.NewRing[CycleSnapshot](cfg.History),
		explain:   metrics.NewRing[ExplainRecord](cfg.ExplainHistory),
	}
	d.setClock(cfg.Clock)
	d.recovered.Store(cfg.Store == nil)
	if cfg.SnapshotEvery > 0 {
		d.snapshotEvery = cfg.SnapshotEvery
	}
	d.placement.Store(&published{snap: &PlacementSnapshot{
		Web:              []WebPlacementView{},
		Jobs:             []JobPlacementView{},
		Nodes:            d.nodeViews(nil, nil),
		InventoryVersion: planner.Inventory().Version(),
	}})
	zones := cfg.Dynamic.Shards
	if zones < 0 {
		zones = 0
	}
	d.obs = d.newObsState(zones, cfg.TraceCycles)
	d.obs.slowCycleSeconds = cfg.SlowCycleWarn
	if cfg.SlowCycleWarn > 0 {
		cfg.Logf("slow-cycle threshold: %.3fs (cycle %.3fs); slow cycles auto-capture a CPU profile",
			cfg.SlowCycleWarn, cfg.CycleSeconds)
	}
	return d, nil
}

// Start begins running control cycles, the first one immediately.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	if d.running {
		return fmt.Errorf("%w: already started", ErrDaemon)
	}
	d.running = true
	// The generation token invalidates ticks from a previous Start whose
	// timers had already fired but were still waiting on d.mu when Stop
	// ran — otherwise a Stop+Start could leave two tick chains running.
	d.runGen++
	gen := d.runGen
	d.cancelTick = d.clock().After(0, func(now float64) { d.tick(gen, now) })
	return nil
}

// Stop halts the control loop. Workload state is retained; Start may be
// called again.
func (d *Daemon) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running {
		return
	}
	d.running = false
	if d.cancelTick != nil {
		d.cancelTick()
		d.cancelTick = nil
	}
}

// Now returns the daemon clock's current time in seconds.
func (d *Daemon) Now() float64 { return d.clock().Now() }

// Router exposes the request router so traffic drivers can dispatch
// against the current placement.
func (d *Daemon) Router() *router.Router { return d.router }

// Placement returns the most recent placement snapshot without blocking
// on the control loop.
func (d *Daemon) Placement() *PlacementSnapshot { return d.placement.Load().snap }

// AddWebApp registers a transactional application. When relative is true
// the spec's load-schedule phase times are interpreted as offsets from
// the current clock reading. The app joins the placement at the next
// control cycle.
func (d *Daemon) AddWebApp(spec dynplace.WebAppSpec, relative bool) error {
	app, err := dynplace.CompileWebApp(spec)
	if err != nil {
		return err
	}
	phases := append([]dynplace.LoadPhase(nil), spec.LoadSchedule...)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	// Read the clock under the lock: a read racing Recover's clock swap
	// would anchor relative phase times at the pre-offset instant.
	now := d.clock().Now()
	if relative {
		for i := range phases {
			phases[i].Start += now
		}
	}
	if _, dup := d.planner.WebApp(spec.Name); dup {
		return fmt.Errorf("%w: duplicate web app %q", control.ErrBadConfig, spec.Name)
	}
	// Journal before applying: once the record is fsync'd the only
	// remaining failure is the duplicate just excluded, so WAL and
	// memory cannot diverge.
	if err := d.journalLocked(store.Record{
		Time: now,
		Op:   store.OpAddApp,
		App:  &store.AppState{Spec: dynplace.WebAppSpecOf(app), Schedule: phases},
	}); err != nil {
		return err
	}
	return d.applyAddApp(app, phases)
}

// applyAddApp registers a compiled app with the planner and seeds a
// capacity-less routing entry so requests arriving before the first
// cycle places the app are queued by overload protection instead of
// bouncing as "unknown application".
//
// dynplace:holds d.mu
func (d *Daemon) applyAddApp(app *txn.App, phases []dynplace.LoadPhase) error {
	if err := d.planner.AddWebApp(app); err != nil {
		return err
	}
	d.router.Update(app.Name, nil)
	sched := make([]control.LoadPhase, len(phases))
	for i, ph := range phases {
		sched[i] = control.LoadPhase(ph)
	}
	d.planner.ScheduleLoad(app.Name, sched)
	return nil
}

// RemoveWebApp deregisters the named application and withdraws its
// routing entry.
func (d *Daemon) RemoveWebApp(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	if _, ok := d.planner.WebApp(name); !ok {
		return fmt.Errorf("%w: unknown web app %q", ErrNotFound, name)
	}
	if err := d.journalLocked(store.Record{
		Time: d.clock().Now(), Op: store.OpRemoveApp, Name: name,
	}); err != nil {
		return err
	}
	d.applyRemoveApp(name)
	return nil
}

// applyRemoveApp deregisters an app everywhere: planner (with its
// pending load schedule), router table. Shared by the live API and WAL
// replay.
//
// dynplace:holds d.mu
func (d *Daemon) applyRemoveApp(name string) {
	d.planner.RemoveWebApp(name)
	d.router.Remove(name)
}

// SetArrivalRate updates the named application's observed request rate —
// the live-sensor input the controller reacts to at its next cycle.
func (d *Daemon) SetArrivalRate(name string, rate float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	// Rate 0 is valid: it quiesces the app ("no demand") without
	// deregistering it, releasing its allocation at the next cycle. NaN
	// and ±Inf are rejected before they can poison the queueing model or
	// the demand forecaster.
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: arrival rate must be a finite nonnegative number", ErrDaemon)
	}
	if _, ok := d.planner.WebApp(name); !ok {
		return fmt.Errorf("%w: unknown web app %q", ErrNotFound, name)
	}
	now := d.clock().Now()
	if err := d.journalLocked(store.Record{
		Time: now, Op: store.OpSetLoad, Name: name, Rate: rate,
	}); err != nil {
		return err
	}
	d.applySetLoad(name, rate, now)
	return nil
}

// applySetLoad records an observed arrival rate. Shared by the live
// API and WAL replay.
//
// dynplace:holds d.mu
func (d *Daemon) applySetLoad(name string, rate, now float64) {
	d.planner.SetArrivalRate(name, rate)
	// Load reports are the forecaster's sensor stream; the journaled
	// timestamp rides along so WAL replay rebuilds the estimator at the
	// same virtual instants.
	d.planner.ObserveLoad(name, rate, now)
	// A manual override supersedes any remaining scheduled phases.
	d.planner.ScheduleLoad(name, nil)
}

// errForecastDisabled reports a forecast read against a daemon running
// the reactive control loop. Deliberately not an ErrDaemon: the request
// is well-formed, the daemon's configuration conflicts with it (409).
var errForecastDisabled = errors.New("forecast-driven control is disabled; start the daemon with -forecast")

// ForecastView is the GET /v1/apps/{name}/forecast response: the demand
// estimator's state and scorecard for one application, plus the rate it
// would predict for one control cycle out.
type ForecastView struct {
	App string `json:"app"`
	// ObservedRate is the last reported arrival rate — what the reactive
	// loop would plan against.
	ObservedRate float64 `json:"observedRate"`
	// PredictedRate is the estimator's projection one cycle ahead of the
	// current clock reading; valid only when PredictionValid (the
	// estimator needs at least one observation).
	PredictedRate   float64 `json:"predictedRate"`
	PredictionValid bool    `json:"predictionValid"`
	// HorizonSeconds is the prediction horizon (the control cycle T).
	HorizonSeconds float64         `json:"horizonSeconds"`
	Config         forecast.Config `json:"config"`
	Stats          forecast.Stats  `json:"stats"`
}

// Forecast reports the named application's demand-estimator state. It
// fails with errForecastDisabled when the daemon runs the reactive loop
// and ErrNotFound for unknown applications.
func (d *Daemon) Forecast(name string) (ForecastView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return ForecastView{}, err
	}
	w, ok := d.planner.WebApp(name)
	if !ok {
		return ForecastView{}, fmt.Errorf("%w: unknown web app %q", ErrNotFound, name)
	}
	if !d.planner.ForecastEnabled() {
		return ForecastView{}, errForecastDisabled
	}
	view := ForecastView{
		App:            name,
		ObservedRate:   w.ArrivalRate,
		HorizonSeconds: d.cfg.CycleSeconds,
		Config:         d.planner.ForecastConfig(),
	}
	now := d.clock().Now()
	view.PredictedRate, view.PredictionValid = d.planner.ForecastRate(name, now, d.cfg.CycleSeconds)
	view.Stats, _ = d.planner.ForecastStats(name)
	return view, nil
}

// SubmitJob registers a batch job. When relative is true the spec's
// Submit, DesiredStart and Deadline are interpreted as offsets from the
// current clock reading, which is the natural encoding for live
// submissions ("finish within the next hour").
func (d *Daemon) SubmitJob(spec dynplace.JobSpec, relative bool) error {
	internal, err := dynplace.CompileJob(spec)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	// Read the clock under the lock: a read racing Recover's clock swap
	// would anchor relative times at the pre-offset instant, journaling
	// deadlines tens of thousands of virtual seconds in the past.
	if relative {
		now := d.clock().Now()
		internal.Submit += now
		internal.DesiredStart += now
		internal.Deadline += now
	}
	// Checked before journaling: a record the planner would reject
	// must never reach the WAL.
	if d.planner.HasJob(internal.Name) {
		return fmt.Errorf("%w: duplicate job %q", ErrDaemon, internal.Name)
	}
	abs := dynplace.JobSpecOf(internal)
	if err := d.journalLocked(store.Record{
		Time: d.clock().Now(), Op: store.OpSubmitJob, Job: &abs,
	}); err != nil {
		return err
	}
	_, err = d.planner.Submit(internal)
	return err
}

// JobResults reports job outcomes: the retained completed jobs
// (oldest-first) followed by the in-flight ones in submission order.
func (d *Daemon) JobResults() []dynplace.JobResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.completed.Snapshot()
	for _, j := range d.planner.Jobs() {
		out = append(out, dynplace.JobResultOf(j))
	}
	return out
}

// Health summarizes liveness for the health endpoint. It reads only
// lock-free state (the last published snapshot), so probes answer
// immediately even while an optimization pass holds the daemon lock;
// the workload counts are as of the last completed cycle.
//
// The status is truthful about the control loop: "degraded" while an
// infeasible streak is active (the cluster cannot host the registered
// workload), "failing" when the most recent cycle errored for any other
// reason, "ok" otherwise. LastError carries the failing cycle's error.
func (d *Daemon) Health() HealthView {
	snap := d.Placement()
	status := "ok"
	switch {
	case !d.recovered.Load() || d.recovering.Load():
		// Boot-time recovery pending or WAL replay in progress: state is
		// still being rebuilt, so load balancers must not route here yet.
		// The window opens as soon as the API starts serving — before
		// Recover is even entered — and closes when replay completes;
		// mutations attempted inside it are refused with 503.
		status = "recovering"
	case snap.Infeasible:
		status = "degraded"
	case snap.Err != "":
		status = "failing"
	}
	active := countActive(snap.Nodes)
	storeFailed := ""
	if d.store != nil {
		// FailedReason is lock-free, preserving Health's never-blocks
		// contract.
		storeFailed = d.store.FailedReason()
	}
	return HealthView{
		Status:           status,
		Restarts:         int(d.restarts.Load()),
		LastError:        snap.Err,
		Now:              d.clock().Now(),
		CycleSeconds:     d.cfg.CycleSeconds,
		Cycles:           d.cycles.Load(),
		WebApps:          len(snap.Web),
		LiveJobs:         len(snap.Jobs),
		ActiveNodes:      active,
		InfeasibleStreak: snap.InfeasibleStreak,
		StoreFailed:      storeFailed,
	}
}

// AddNode registers a fresh node with the live inventory; the next
// control cycle offers its capacity to the placement optimizer. An empty
// name is assigned automatically; the chosen name is returned.
func (d *Daemon) AddNode(name string, cpuMHz, memMB float64) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return "", err
	}
	id, err := d.planner.AddNode(cluster.Node{Name: name, CPUMHz: cpuMHz, MemMB: memMB})
	if err != nil {
		return "", err
	}
	n, _ := d.planner.Inventory().Node(id)
	// The inventory assigns the ID, so the record is written after the
	// fact — and carries the assignment so replay can verify it
	// reproduces the same numbering. A failed journal rolls the node
	// back: un-journaled state must not outlive the response.
	if err := d.journalLocked(store.Record{
		Time: d.clock().Now(), Op: store.OpAddNode,
		Node: &cluster.InventoryNodeSnapshot{
			ID: int(id), Name: n.Name, CPUMHz: cpuMHz, MemMB: memMB,
			State: cluster.NodeActive.String(),
		},
		InventoryVersion: d.planner.Inventory().Version(),
	}); err != nil {
		_ = d.planner.RemoveNode(id)
		return "", err
	}
	d.cfg.Logf("node %s joined: %.0f MHz, %.0f MB (inventory v%d)",
		n.Name, cpuMHz, memMB, d.planner.Inventory().Version())
	return n.Name, nil
}

// DrainNode begins a graceful departure: the node stops receiving
// placements and the next cycle live-migrates its work off. Once its
// placement shows zero web instances and jobs it can be removed.
func (d *Daemon) DrainNode(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	inv := d.planner.Inventory()
	n, ok := inv.ByName(name)
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrNotFound, name)
	}
	if n.State == cluster.NodeFailed {
		// Drain would refuse below anyway; fail before journaling.
		return fmt.Errorf("%w: cannot drain failed node %q", cluster.ErrBadNode, name)
	}
	// The record is journaled before the transition, so the post-op
	// version is computed: Drain bumps only when the state changes.
	ver := inv.Version()
	if n.State != cluster.NodeDraining {
		ver++
	}
	if err := d.journalLocked(store.Record{
		Time: d.clock().Now(), Op: store.OpDrainNode, Name: name,
		InventoryVersion: ver,
	}); err != nil {
		return err
	}
	if _, err := inv.Drain(name); err != nil {
		return err
	}
	d.cfg.Logf("node %s draining (inventory v%d)", name, inv.Version())
	return nil
}

// FailNode records an abrupt node loss: its capacity disappears, web
// instances on it are evicted, jobs on it are suspended with progress
// intact and marked for rescue, and its dispatch weights are withdrawn
// immediately — the next cycle re-places everything on surviving nodes.
func (d *Daemon) FailNode(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	inv := d.planner.Inventory()
	n, ok := inv.ByName(name)
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrNotFound, name)
	}
	now := d.clock().Now()
	// Post-op version, journaled before the transition: Fail bumps only
	// when the state changes.
	ver := inv.Version()
	if n.State != cluster.NodeFailed {
		ver++
	}
	if err := d.journalLocked(store.Record{
		Time: now, Op: store.OpFailNode, Name: name,
		InventoryVersion: ver,
	}); err != nil {
		return err
	}
	d.applyFailNode(name, now)
	return nil
}

// applyFailNode records an abrupt node loss at instant now: capacity
// vanishes, jobs on the node are advanced to the failure instant and
// evicted (progress intact, rescue pending), and the node's dispatch
// weights are withdrawn. Shared by the live API and WAL replay, which
// passes the journaled failure time.
//
// dynplace:holds d.mu
func (d *Daemon) applyFailNode(name string, now float64) {
	inv := d.planner.Inventory()
	n, ok := inv.ByName(name)
	if !ok {
		return
	}
	evicted := len(d.planner.FailNode(n.ID, now))
	// Withdraw the dead node from live dispatch weights right away; the
	// next cycle republishes the re-placed instances.
	for _, app := range d.router.Apps() {
		ins, ok := d.router.Instances(app)
		if !ok {
			continue
		}
		keep := make([]router.Instance, 0, len(ins))
		for _, in := range ins {
			if in.Node != name {
				keep = append(keep, in)
			}
		}
		if len(keep) != len(ins) {
			d.router.Update(app, keep)
		}
	}
	d.cfg.Logf("node %s failed: %d jobs awaiting rescue (inventory v%d)",
		name, evicted, inv.Version())
}

// RemoveNode deregisters a node entirely. Nodes still hosting work are
// refused — drain (graceful) or fail (abrupt) them first.
func (d *Daemon) RemoveNode(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gateLocked(); err != nil {
		return err
	}
	inv := d.planner.Inventory()
	n, ok := inv.ByName(name)
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrNotFound, name)
	}
	if count := d.planner.WebInstancesOn(n.ID); count > 0 {
		return fmt.Errorf("%w: node %q still hosts %d web instances; drain or fail it first",
			ErrDaemon, name, count)
	}
	for _, j := range d.planner.Jobs() {
		if j.Node == n.ID {
			return fmt.Errorf("%w: node %q still hosts job %q; drain or fail it first",
				ErrDaemon, name, j.Spec.Name)
		}
	}
	// Remove always bumps the version once; the record precedes the op.
	if err := d.journalLocked(store.Record{
		Time: d.clock().Now(), Op: store.OpRemoveNode, Name: name,
		InventoryVersion: inv.Version() + 1,
	}); err != nil {
		return err
	}
	if err := d.planner.RemoveNode(n.ID); err != nil {
		return err
	}
	d.cfg.Logf("node %s removed (inventory v%d)", name, inv.Version())
	return nil
}

// NodeViews lists every inventory node with its current lifecycle state
// and the occupancy of the last published placement.
func (d *Daemon) NodeViews() []NodeView {
	snap := d.Placement()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodeViews(d.placedNodeIDs(snap.Web, snap.Jobs))
}

// countActive returns how many of the views' nodes offer capacity.
func countActive(nodes []NodeView) int {
	active := 0
	for _, n := range nodes {
		if n.State == cluster.NodeActive.String() {
			active++
		}
	}
	return active
}

// nodeViews builds the per-node views from the current inventory. Each
// entry of webNodes is the node of one placed web instance and each
// entry of jobNodes the node of one placed job; a node the inventory
// no longer holds counts for nothing.
//
// dynplace:holds d.mu
func (d *Daemon) nodeViews(webNodes, jobNodes []cluster.NodeID) []NodeView {
	nodes := d.planner.Inventory().Nodes()
	out := make([]NodeView, len(nodes))
	for i, n := range nodes {
		out[i] = NodeView{Name: n.Name, State: n.State.String(), CPUMHz: n.CPUMHz, MemMB: n.MemMB}
	}
	// The inventory lists its nodes in ascending ID order.
	find := func(id cluster.NodeID) (int, bool) {
		return slices.BinarySearchFunc(nodes, id, func(n cluster.InventoryNode, id cluster.NodeID) int {
			return cmp.Compare(n.ID, id)
		})
	}
	for _, id := range webNodes {
		if i, ok := find(id); ok {
			out[i].WebInstances++
		}
	}
	for _, id := range jobNodes {
		if i, ok := find(id); ok {
			out[i].Jobs++
		}
	}
	return out
}

// placedNodeIDs resolves a published placement's web instances and its
// placed, uncompleted jobs to the inventory IDs of their nodes, by
// name. A name the inventory no longer holds is left out.
//
// dynplace:holds d.mu
func (d *Daemon) placedNodeIDs(web []WebPlacementView, jobs []JobPlacementView) (webNodes, jobNodes []cluster.NodeID) {
	inv := d.planner.Inventory()
	for _, w := range web {
		for _, in := range w.Instances {
			if n, ok := inv.ByName(in.Node); ok {
				webNodes = append(webNodes, n.ID)
			}
		}
	}
	for _, j := range jobs {
		if j.Node == "" || j.Status == scheduler.Completed.String() {
			continue
		}
		if n, ok := inv.ByName(j.Node); ok {
			jobNodes = append(jobNodes, n.ID)
		}
	}
	return webNodes, jobNodes
}

// Metrics assembles the observability view for the metrics endpoint.
func (d *Daemon) Metrics() MetricsView {
	d.mu.Lock()
	defer d.mu.Unlock()
	actions := d.actionTotalsLocked()
	durability := d.durabilityLocked()
	return MetricsView{
		Now:              d.clock().Now(),
		Cycles:           d.cycles.Load(),
		Actions:          actions,
		InfeasibleCycles: d.planner.InfeasibleCycles(),
		Router:           d.router.Snapshot(),
		History:          d.history.Snapshot(),
		Shards:           d.planner.ShardStats(),
		InventoryVersion: d.planner.Inventory().Version(),
		NodeStates:       d.planner.Inventory().Counts(),
		SystemMetrics:    durability.SystemMetrics,
		Durability:       durability,
	}
}

// shardSpread condenses per-zone stats into the two health gauges the
// cycle history retains: the hottest zone's utilization and the
// max−min utilization spread (shard imbalance).
func shardSpread(stats []shard.Stats) (maxUtil, imbalance float64) {
	if len(stats) == 0 {
		return 0, 0
	}
	minUtil := stats[0].Utilization
	maxUtil = stats[0].Utilization
	for _, s := range stats[1:] {
		if s.Utilization < minUtil {
			minUtil = s.Utilization
		}
		if s.Utilization > maxUtil {
			maxUtil = s.Utilization
		}
	}
	return maxUtil, maxUtil - minUtil
}

// WebAppNames returns the registered applications in sorted order.
func (d *Daemon) WebAppNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for _, w := range d.planner.WebApps() {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}

// tick runs one control cycle and schedules the next one. Ticks carry
// the generation they were scheduled under; a stale generation means the
// daemon was stopped (and possibly restarted) since this tick's timer
// fired, so it must not run or reschedule.
func (d *Daemon) tick(gen int, now float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running || gen != d.runGen {
		return
	}
	d.runCycle(now)
	d.cancelTick = d.clock().After(d.cfg.CycleSeconds, func(t float64) { d.tick(gen, t) })
}

// runCycle is one control-loop iteration: observe, plan, act, publish.
//
// dynplace:holds d.mu
func (d *Daemon) runCycle(now float64) {
	// The trace opens with the cycle ordinal this iteration will get;
	// d.cycles only advances under d.mu, so Load()+1 here equals the
	// Add(1) below.
	trace := d.obs.tracer.Begin(d.cycles.Load()+1, now)
	// When the previous cycle armed the auto-capture, this whole cycle
	// runs under the CPU profiler; stopProfile retains the result.
	stopProfile := d.beginSlowCycleProfile()
	endDemand := trace.Span("demand_update")
	live, done := d.planner.Advance(now)
	// Retired jobs move into the bounded results ring, so the working set
	// the loop scans each cycle stays proportional to live work.
	var retired []dynplace.JobResult
	for _, j := range done {
		res := dynplace.JobResultOf(j)
		d.completed.Push(res)
		retired = append(retired, res)
	}
	endDemand()

	plan, err := d.planner.PlanTraced(now, d.cfg.CycleSeconds, live, trace)
	cycle := d.cycles.Add(1)
	if err != nil {
		// Publish a snapshot that carries the failure rather than
		// leaving the previous one up with a stale cycle number: the
		// workload views keep the last successfully planned state (which
		// is what remains deployed), while Err/Infeasible make
		// /v1/placement, /v1/healthz and the cycle history agree the cycle
		// failed.
		infeasible := errors.Is(err, core.ErrInfeasible)
		if infeasible {
			d.infeasibleStreak++
		} else {
			d.infeasibleStreak = 0
		}
		last := d.placement.Load()
		prev := last.snap
		nodes := d.nodeViews(d.placedNodeIDs(prev.Web, prev.Jobs))
		active := countActive(nodes)
		d.placement.Store(last.next(&PlacementSnapshot{
			Cycle:            cycle,
			Time:             now,
			Web:              prev.Web,
			Jobs:             prev.Jobs,
			Nodes:            nodes,
			OmegaGMHz:        prev.OmegaGMHz,
			Shards:           prev.Shards,
			InventoryVersion: d.planner.Inventory().Version(),
			Err:              err.Error(),
			Infeasible:       infeasible,
			InfeasibleStreak: d.infeasibleStreak,
		}))
		d.cfg.Logf("cycle %d t=%.1f: plan failed: %v", cycle, now, err)
		d.history.Push(CycleSnapshot{
			Cycle: cycle, Time: now, LiveJobs: len(live), Err: err.Error(),
			Infeasible:  infeasible,
			ActiveNodes: active,
		})
		// Even a failed cycle mutated durable state: completed jobs were
		// retired and the cycle counter advanced.
		endJournal := trace.Span("journal")
		d.journalCycleLocked(cycle, now, live, retired, err)
		endJournal()
		// The flight recorder keeps failed cycles too: a denied-everything
		// incident reads as a run of error records, not a gap.
		d.explain.Push(ExplainRecord{Cycle: cycle, Time: now, Err: err.Error()})
		stopProfile(cycle, now)
		d.recordCycleObs(d.obs.tracer.Finish(trace, err.Error()), true)
		return
	}
	d.infeasibleStreak = 0

	endApply := trace.Span("apply")
	changed, queued := d.planner.Apply(now, live, plan.Assignments)
	endApply()

	// Republish dispatch weights, then swap the public snapshot.
	endPublish := trace.Span("publish")
	webApps := d.planner.WebApps()
	snap := &PlacementSnapshot{
		Cycle:            cycle,
		Time:             now,
		Web:              make([]WebPlacementView, 0, len(webApps)),
		Jobs:             make([]JobPlacementView, 0, len(live)),
		OmegaGMHz:        plan.OmegaG,
		Changes:          changed,
		InstanceChanges:  plan.Changes,
		Shards:           plan.Shards,
		InventoryVersion: plan.InventoryVersion,
	}
	webUtil := make(map[string]float64, len(webApps))
	tables := make(map[string][]router.Instance, len(webApps))
	var webNodes, jobNodes []cluster.NodeID
	for i, w := range webApps {
		instances := make([]router.Instance, 0, len(plan.Web[i]))
		views := make([]InstanceView, 0, len(plan.Web[i]))
		for _, in := range plan.Web[i] {
			webNodes = append(webNodes, in.Node)
			name := d.nodeName(in.Node)
			instances = append(instances, router.Instance{Node: name, PowerMHz: in.PowerMHz})
			views = append(views, InstanceView{Node: name, PowerMHz: in.PowerMHz})
		}
		tables[w.Name] = instances
		snap.Web = append(snap.Web, WebPlacementView{
			Name:        w.Name,
			ArrivalRate: w.ArrivalRate,
			AllocMHz:    plan.WebAllocMHz[i],
			Utility:     plan.WebUtilities[i],
			Instances:   views,
		})
		webUtil[w.Name] = plan.WebUtilities[i]
	}
	// One atomic table swap for the whole cycle: dispatchers racing the
	// publish see either last cycle's placement or this one, never a mix.
	d.router.Publish(tables)
	for i, w := range webApps {
		if plan.WebAllocMHz[i] > 0 {
			// Capacity is available again: release requests parked in
			// the overload-protection queue.
			d.router.Drain(w.Name, d.cfg.QueueCap)
		}
	}

	for k, j := range live {
		view := JobPlacementView{
			Name:         j.Spec.Name,
			Status:       j.Status.String(),
			SpeedMHz:     j.SpeedMHz,
			DoneMcycles:  j.Done,
			TotalMcycles: j.Spec.TotalWork(),
			Utility:      plan.BatchUtilities[k],
			Deadline:     j.Spec.Deadline,
		}
		if j.Node != scheduler.NoNode {
			view.Node = d.nodeName(j.Node)
			if j.Status != scheduler.Completed {
				jobNodes = append(jobNodes, j.Node)
			}
		}
		snap.Jobs = append(snap.Jobs, view)
	}
	snap.Nodes = d.nodeViews(webNodes, jobNodes)
	active := countActive(snap.Nodes)
	d.placement.Store(d.placement.Load().next(snap))

	batchUtil, _ := plan.BatchUtilityMean()
	maxUtil, imbalance := shardSpread(plan.Shards)
	d.history.Push(CycleSnapshot{
		Cycle:               cycle,
		Time:                now,
		Changes:             changed,
		OmegaGMHz:           plan.OmegaG,
		BatchUtility:        batchUtil,
		WebUtilities:        webUtil,
		LiveJobs:            len(live),
		QueuedJobs:          queued,
		ActiveNodes:         active,
		ShardImbalance:      imbalance,
		MaxShardUtilization: maxUtil,
	})
	d.cfg.Logf("cycle %d t=%.1f: web=%d jobs=%d queued=%d changes=%d omegaG=%.0fMHz",
		cycle, now, len(webApps), len(live), queued, changed, plan.OmegaG)
	endPublish()
	endJournal := trace.Span("journal")
	d.journalCycleLocked(cycle, now, live, retired, nil)
	endJournal()
	if d.store != nil && d.snapshotEvery > 0 && cycle%int64(d.snapshotEvery) == 0 {
		endSnap := trace.Span("snapshot")
		err := d.writeSnapshotLocked()
		endSnap()
		if err != nil {
			d.walErrors++
			d.cfg.Logf("cycle %d: snapshot failed: %v", cycle, err)
		}
	}
	d.recordExplanation(cycle, now, plan.Explanation)
	stopProfile(cycle, now)
	d.recordCycleObs(d.obs.tracer.Finish(trace, ""), false)
}

// nodeName resolves a node ID to its display name.
//
// dynplace:holds d.mu
func (d *Daemon) nodeName(id cluster.NodeID) string {
	n, ok := d.planner.Inventory().Node(id)
	if !ok {
		return fmt.Sprintf("node-%d", id)
	}
	return n.Name
}
