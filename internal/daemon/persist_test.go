package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/store"
)

// newDurableDaemonRaw builds a daemon journaling into dir under a
// SimClock without running Recover: mutations and Start are refused
// until the test recovers it.
func newDurableDaemonRaw(t *testing.T, dir string) (*Daemon, *SimClock) {
	t.Helper()
	cl, err := cluster.Uniform(3, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster:       cl,
		CycleSeconds:  60,
		Costs:         cluster.FreeCostModel(),
		Clock:         clock,
		History:       64,
		Store:         st,
		SnapshotEvery: -1, // WAL-only unless the test snapshots
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, clock
}

// newDurableDaemon builds a durable daemon and runs the boot-time
// recovery (a no-op on a fresh directory) so it accepts mutations.
func newDurableDaemon(t *testing.T, dir string) (*Daemon, *SimClock) {
	t.Helper()
	d, clock := newDurableDaemonRaw(t, dir)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func loadWorkload(t testing.TB, d *Daemon) {
	t.Helper()
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "shop", ArrivalRate: 20, DemandPerRequest: 50,
		GoalResponseTime: 0.25, MemoryMB: 800,
	}, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"etl", "report"} {
		if err := d.SubmitJob(dynplace.JobSpec{
			Name: name, WorkMcycles: 600000, MaxSpeedMHz: 3000,
			MemoryMB: 1000, Deadline: 7200,
		}, false); err != nil {
			t.Fatal(err)
		}
	}
}

func placementJSON(t *testing.T, d *Daemon) []byte {
	t.Helper()
	raw, err := json.Marshal(d.Placement())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestKillRestartPlacementRoundTrip is the acceptance test for the
// durable store: run cycles, abandon the daemon without any graceful
// shutdown (the kill -9 case — only the fsync'd WAL survives), recover
// a fresh daemon from the same state dir, and require GET /placement to
// be byte-identical, with every app, job (CompletedWork intact) and the
// inventory at its recorded version.
func TestKillRestartPlacementRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if _, err := d.AddNode("spare", 2500, 2048); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(200) // a few cycles of progress
	d.Stop()           // kill: no snapshot, no flush beyond per-record fsync

	before := d.Placement()
	beforeRaw := placementJSON(t, d)
	invVersion := d.planner.Inventory().Version()
	if before.Cycle == 0 || len(before.Jobs) == 0 {
		t.Fatalf("pre-kill placement not established: %+v", before)
	}
	var doneBefore float64
	for _, j := range before.Jobs {
		doneBefore += j.DoneMcycles
	}
	if doneBefore <= 0 {
		t.Fatal("no job progress accrued before the kill")
	}

	d2, clock2 := newDurableDaemon(t, dir)
	if got := placementJSON(t, d2); !bytes.Equal(got, beforeRaw) {
		t.Fatalf("placement diverged across kill/replay:\npre:  %s\npost: %s", beforeRaw, got)
	}
	if v := d2.planner.Inventory().Version(); v != invVersion {
		t.Fatalf("inventory version = %d, want %d", v, invVersion)
	}
	if now := d2.Now(); now < before.Time {
		t.Fatalf("virtual time went backwards: %v < %v", now, before.Time)
	}
	dur := d2.Durability()
	if dur.Restarts != 1 || dur.ReplayedRecords == 0 {
		t.Fatalf("durability after recover = %+v", dur)
	}
	if dur.Store.SnapshotSeq == 0 {
		t.Fatal("boot compaction did not write a snapshot")
	}

	// Jobs that were running when the process died are rescued: they
	// resume from their recorded progress, are re-placed on the next
	// cycle, and the involuntary move is counted in Rescues.
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	clock2.Advance(60)
	after := d2.Placement()
	rescues := 0
	for _, res := range d2.JobResults() {
		rescues += res.Rescues
	}
	if rescues == 0 {
		t.Fatalf("no rescues counted after restart; jobs = %+v", after.Jobs)
	}
	var doneAfter float64
	for _, j := range after.Jobs {
		doneAfter += j.DoneMcycles
	}
	if doneAfter < doneBefore {
		t.Fatalf("completed work regressed: %v < %v", doneAfter, doneBefore)
	}

	// Run to drain: recovery resumes the work, it does not strand it.
	// Every job completes, and with the jobs gone the web app is back
	// at least at its pre-kill utility.
	clock2.Advance(1200)
	results := d2.JobResults()
	if len(results) != 2 {
		t.Fatalf("%d job results after the restart, want loadWorkload's 2", len(results))
	}
	for _, res := range results {
		if !res.Completed {
			t.Errorf("job %s never completed after the restart: %+v", res.Name, res)
		}
	}
	if got, want := d2.Placement().Web[0].Utility, before.Web[0].Utility; got < want-0.02 {
		t.Errorf("web utility %v after the restart, %v before the kill", got, want)
	}
}

// TestGracefulShutdownCompacts checks Shutdown's final snapshot: a
// recover from a cleanly shut down state dir replays zero WAL records.
func TestGracefulShutdownCompacts(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	beforeRaw := placementJSON(t, d)
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A journaled mutation after Shutdown must be refused, not silently
	// applied in memory only.
	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "late", WorkMcycles: 1, MaxSpeedMHz: 1, MemoryMB: 1, Deadline: 9999,
	}, false); err == nil {
		t.Fatal("mutation accepted after Shutdown")
	}

	d2, _ := newDurableDaemon(t, dir)
	dur := d2.Durability()
	if dur.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", dur.ReplayedRecords)
	}
	if got := placementJSON(t, d2); !bytes.Equal(got, beforeRaw) {
		t.Fatalf("placement diverged across graceful restart:\npre:  %s\npost: %s", beforeRaw, got)
	}
}

// TestRecoveryReplaysEveryMutationClass drives every journaled op —
// app add/remove/load, job submit, node add/drain/fail/remove — then
// kills and recovers, checking the reconstructed registry.
func TestRecoveryReplaysEveryMutationClass(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "ads", ArrivalRate: 5, DemandPerRequest: 30,
		GoalResponseTime: 0.5, MemoryMB: 400,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	if err := d.RemoveWebApp("ads"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetArrivalRate("shop", 35); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNode("spare-a", 2500, 2048); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNode("spare-b", 2500, 2048); err != nil {
		t.Fatal(err)
	}
	if err := d.DrainNode("spare-a"); err != nil {
		t.Fatal(err)
	}
	if err := d.FailNode("node-2"); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveNode("node-2"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60)
	d.Stop()
	wantStates := d.planner.Inventory().Counts()
	wantVersion := d.planner.Inventory().Version()

	d2, _ := newDurableDaemon(t, dir)
	if got := d2.WebAppNames(); len(got) != 1 || got[0] != "shop" {
		t.Fatalf("apps = %v, want [shop]", got)
	}
	if app, ok := d2.planner.WebApp("shop"); !ok || app.ArrivalRate != 35 {
		t.Fatalf("shop arrival rate not recovered: %+v", app)
	}
	gotStates := d2.planner.Inventory().Counts()
	if d2.planner.Inventory().Version() != wantVersion {
		t.Fatalf("inventory version = %d, want %d", d2.planner.Inventory().Version(), wantVersion)
	}
	for k, v := range wantStates {
		if gotStates[k] != v {
			t.Fatalf("node states = %v, want %v", gotStates, wantStates)
		}
	}
	// node-2's ID must stay retired after recovery: a fresh node gets a
	// higher ID, never the removed one.
	name, err := d2.AddNode("", 1000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := d2.planner.Inventory().ByName(name)
	if int(n.ID) <= 4 { // 3 seed nodes + 2 spares occupied IDs 0..4
		t.Fatalf("recycled node ID %d for %q", n.ID, name)
	}
}

// TestHealthRecoveringState: the health endpoint must advertise
// "recovering" while replay is rebuilding state, and clear it after.
func TestHealthRecoveringState(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60)
	d.Stop()

	d2, _ := newDurableDaemonRaw(t, dir)
	// The recovering window opens as soon as the daemon exists — before
	// Recover is even entered — so a load balancer that routes early sees
	// "recovering", not "ok".
	if got := d2.Health().Status; got != "recovering" {
		t.Fatalf("health before recover = %q, want recovering", got)
	}
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := d2.Health(); got.Status == "recovering" || got.Restarts != 1 {
		t.Fatalf("health after recover = %+v", got)
	}
}

// TestPeriodicSnapshotBoundsWAL: with SnapshotEvery set, the WAL is
// rotated on cadence and recovery replays only the records after the
// last snapshot.
func TestPeriodicSnapshotBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(),
		Clock: clock, Store: st, SnapshotEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60 * 7) // cycles 1..8 → snapshots at 3 and 6
	d.Stop()
	info := st.Info()
	if info.SnapshotSeq == 0 {
		t.Fatal("no periodic snapshot written")
	}
	beforeRaw := placementJSON(t, d)

	d2, _ := newDurableDaemon(t, dir)
	dur := d2.Durability()
	if dur.ReplayedRecords == 0 || dur.ReplayedRecords >= 8 {
		t.Fatalf("replayed %d records, want only the post-snapshot tail", dur.ReplayedRecords)
	}
	if got := placementJSON(t, d2); !bytes.Equal(got, beforeRaw) {
		t.Fatalf("placement diverged across snapshot+tail recovery:\npre:  %s\npost: %s", beforeRaw, got)
	}
	if d2.Metrics().UptimeCycles != 0 {
		t.Fatalf("uptime cycles = %d before first post-restart cycle", d2.Metrics().UptimeCycles)
	}
	if d2.Metrics().Cycles != d.cycles.Load() {
		t.Fatalf("lifetime cycles = %d, want %d", d2.Metrics().Cycles, d.cycles.Load())
	}
}

// TestMutationsRefusedUntilRecovered covers the boot window between the
// API starting to serve and Recover completing: a mutation accepted
// there would be journaled, acknowledged with 2xx, then wiped from
// memory by the replay and dropped from disk by the boot compaction.
// Every mutating surface must refuse with 503 until recovery has run.
func TestMutationsRefusedUntilRecovered(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	d.Stop() // kill: the next generation must replay before mutating

	d2, _ := newDurableDaemonRaw(t, dir)
	srv := httptest.NewServer(d2.Handler())
	t.Cleanup(srv.Close)
	mutations := []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/apps", AddAppRequest{App: dynplace.WebAppSpec{
			Name: "early", ArrivalRate: 1, DemandPerRequest: 10,
			GoalResponseTime: 1, MemoryMB: 100,
		}}},
		{"POST", "/v1/jobs", SubmitJobRequest{Job: dynplace.JobSpec{
			Name: "early-job", WorkMcycles: 1, MaxSpeedMHz: 1,
			MemoryMB: 1, Deadline: 9999,
		}}},
		{"POST", "/v1/nodes", AddNodeRequest{Name: "early-node", CPUMHz: 1000, MemMB: 1024}},
		{"POST", "/v1/nodes/node-0/drain", nil},
		{"POST", "/v1/nodes/node-0/fail", nil},
		{"DELETE", "/v1/nodes/node-0", nil},
		{"DELETE", "/v1/apps/shop", nil},
		{"POST", "/v1/apps/shop/load", SetLoadRequest{ArrivalRate: 5}},
		{"POST", "/v1/state/snapshot", nil},
	}
	for _, c := range mutations {
		status, body := do(t, c.method, srv.URL+c.path, c.body)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s %s before recover = %d (%s), want 503", c.method, c.path, status, body)
		}
	}
	if err := d2.Start(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Start before Recover: err = %v, want ErrRecovering", err)
	}

	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Nothing refused above leaked into the recovered state, and the
	// daemon accepts mutations again.
	if got := d2.WebAppNames(); len(got) != 1 || got[0] != "shop" {
		t.Fatalf("apps after recover = %v, want [shop]", got)
	}
	status, body := do(t, "POST", srv.URL+"/v1/nodes", AddNodeRequest{Name: "late-node", CPUMHz: 1000, MemMB: 1024})
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/nodes after recover = %d (%s)", status, body)
	}
}

// TestNodeOpReplayRestoresInventoryVersion: node-op records carry the
// post-op inventory version, so replay resynchronizes the counter even
// when the live inventory burned increments no record captured (an add
// rolled back on journal failure bumps the version twice) — including
// for the drain/fail/remove transitions that follow such a gap.
func TestNodeOpReplayRestoresInventoryVersion(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(store.Record{
		Time: 0, Op: store.OpAddNode,
		Node: &cluster.InventoryNodeSnapshot{
			ID: 7, Name: "spare", CPUMHz: 2000, MemMB: 2048,
			State: cluster.NodeActive.String(),
		},
		InventoryVersion: 9,
	}); err != nil {
		t.Fatal(err)
	}
	// A drain journaled after further burned increments: live version 12.
	if _, err := st.Append(store.Record{
		Time: 1, Op: store.OpDrainNode, Name: "spare", InventoryVersion: 12,
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	d, _ := newDurableDaemon(t, dir)
	if v := d.planner.Inventory().Version(); v != 12 {
		t.Fatalf("inventory version after replay = %d, want 12", v)
	}
	if n, ok := d.planner.Inventory().ByName("spare"); !ok || int(n.ID) != 7 || n.State != cluster.NodeDraining {
		t.Fatalf("restored node = %+v (ok=%v), want ID 7 draining", n, ok)
	}
}

// TestStateEndpoints exercises GET /state and POST /state/snapshot over
// HTTP, including the 409 for a memory-only daemon.
func TestStateEndpoints(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDaemon(t, dir)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	status, body := do(t, "GET", srv.URL+"/v1/state", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/state = %d: %s", status, body)
	}
	var dur DurabilityView
	if err := json.Unmarshal(body, &dur); err != nil {
		t.Fatal(err)
	}
	if !dur.Enabled || dur.Store.Seq == 0 {
		t.Fatalf("durability = %+v", dur)
	}

	status, body = do(t, "POST", srv.URL+"/v1/state/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/state/snapshot = %d: %s", status, body)
	}
	var info store.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq == 0 || info.WALRecords != 0 {
		t.Fatalf("snapshot info = %+v, want compacted WAL", info)
	}

	// A memory-only daemon refuses the snapshot request.
	mem, _, memSrv := newTestDaemon(t)
	_ = mem
	status, _ = do(t, "POST", memSrv.URL+"/v1/state/snapshot", nil)
	if status != http.StatusConflict {
		t.Fatalf("snapshot without store = %d, want 409", status)
	}
	status, body = do(t, "GET", memSrv.URL+"/v1/state", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/state without store = %d", status)
	}
	if err := json.Unmarshal(body, &dur); err != nil {
		t.Fatal(err)
	}
	if dur.Enabled {
		t.Fatal("memory-only daemon reports durability enabled")
	}
}
