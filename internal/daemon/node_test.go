package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
)

func getMetrics(t *testing.T, url string) MetricsView {
	t.Helper()
	status, body := do(t, http.MethodGet, url+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", status, body)
	}
	var mv MetricsView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	return mv
}

func getHealth(t *testing.T, url string) HealthView {
	t.Helper()
	status, body := do(t, http.MethodGet, url+"/v1/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/healthz: status %d: %s", status, body)
	}
	var hv HealthView
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	return hv
}

func jobView(t *testing.T, snap PlacementSnapshot, name string) JobPlacementView {
	t.Helper()
	for _, j := range snap.Jobs {
		if j.Name == name {
			return j
		}
	}
	t.Fatalf("job %q missing from placement %+v", name, snap.Jobs)
	return JobPlacementView{}
}

// TestDaemonFailNodeRescuesJobs fails the node hosting a running job
// mid-run and checks the recovery contract: the job is rescued onto a
// surviving node with its progress intact (counted under the distinct
// rescue action, not the voluntary Figure-4 changes), the web app's
// utility recovers within two cycles, and the placement exposes the
// failed node's state.
func TestDaemonFailNodeRescuesJobs(t *testing.T) {
	// Three nodes so the surviving capacity still covers the workload:
	// the web app's utility must fully recover after the rescue.
	cl, err := cluster.Uniform(3, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: clock, History: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(d.Stop)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// MaxPowerMHz caps the app's useful demand well below the surviving
	// capacity, so its utility has no excuse not to recover fully.
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "shop", ArrivalRate: 5, DemandPerRequest: 50,
		BaseLatency: 0.02, GoalResponseTime: 0.2, MemoryMB: 1000,
		MaxPowerMHz: 2000,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "etl", WorkMcycles: 5e6, MaxSpeedMHz: 2800, MemoryMB: 1000, Deadline: 7200,
	}, true); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)

	before := getPlacement(t, srv.URL)
	job := jobView(t, before, "etl")
	if job.Status != "running" || job.Node == "" {
		t.Fatalf("job not running before failure: %+v", job)
	}
	webBefore := before.Web[0].Utility

	status, body := do(t, http.MethodPost, srv.URL+"/v1/nodes/"+job.Node+"/fail", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/nodes/%s/fail: status %d: %s", job.Node, status, body)
	}
	failed := job.Node

	// Two more cycles: the rescue and the recovered steady state.
	clock.Advance(120)
	after := getPlacement(t, srv.URL)
	rescued := jobView(t, after, "etl")
	if rescued.Node == failed || rescued.Status != "running" {
		t.Fatalf("job not rescued off %s: %+v", failed, rescued)
	}
	if rescued.DoneMcycles < job.DoneMcycles {
		t.Fatalf("rescue lost progress: %v -> %v Mcycles", job.DoneMcycles, rescued.DoneMcycles)
	}
	if after.Web[0].Utility < webBefore-1e-6 {
		t.Fatalf("web utility %v did not recover to %v within 2 cycles",
			after.Web[0].Utility, webBefore)
	}
	mv := getMetrics(t, srv.URL)
	if mv.Actions["rescue"] < 1 {
		t.Fatalf("rescue counter = %d, want ≥ 1 (actions %v)", mv.Actions["rescue"], mv.Actions)
	}
	if mv.NodeStates["failed"] != 1 || mv.NodeStates["active"] != 2 {
		t.Fatalf("node states = %v, want 2 active + 1 failed", mv.NodeStates)
	}
	var foundFailed bool
	for _, n := range after.Nodes {
		if n.Name == failed {
			foundFailed = true
			if n.State != "failed" || n.Jobs != 0 || n.WebInstances != 0 {
				t.Fatalf("failed node view = %+v, want empty failed node", n)
			}
		}
	}
	if !foundFailed {
		t.Fatalf("failed node %s missing from placement nodes %+v", failed, after.Nodes)
	}
	if hv := getHealth(t, srv.URL); hv.Status != "ok" || hv.ActiveNodes != 2 {
		t.Fatalf("health after rescue = %+v, want ok on 2 active nodes", hv)
	}
}

// TestDaemonHealthTruthfulThroughFailure is the health-endpoint
// regression test: /healthz must stop reporting "ok" while cycles fail,
// /placement must publish error-carrying snapshots with advancing cycle
// numbers, and both must recover once capacity returns — with the
// stranded job rescued, progress intact.
func TestDaemonHealthTruthfulThroughFailure(t *testing.T) {
	cl, err := cluster.Uniform(1, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Stop()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "api", ArrivalRate: 4, DemandPerRequest: 40,
		GoalResponseTime: 0.5, MemoryMB: 800,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "batch", WorkMcycles: 4e6, MaxSpeedMHz: 2500, MemoryMB: 800, Deadline: 7200,
	}, true); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	if hv := getHealth(t, srv.URL); hv.Status != "ok" || hv.LastError != "" {
		t.Fatalf("health before failure = %+v, want ok", hv)
	}
	doneBefore := jobView(t, getPlacement(t, srv.URL), "batch").DoneMcycles
	if doneBefore <= 0 {
		t.Fatal("job made no progress before the failure")
	}

	// The only node dies: every subsequent cycle is infeasible.
	if status, body := do(t, http.MethodPost, srv.URL+"/v1/nodes/node-0/fail", nil); status != http.StatusOK {
		t.Fatalf("fail node: status %d: %s", status, body)
	}
	cycleAtFailure := getPlacement(t, srv.URL).Cycle
	clock.Advance(120)

	hv := getHealth(t, srv.URL)
	if hv.Status != "degraded" {
		t.Fatalf("health status = %q during infeasible window, want degraded", hv.Status)
	}
	if hv.LastError == "" || hv.InfeasibleStreak < 2 || hv.ActiveNodes != 0 {
		t.Fatalf("health during failure = %+v, want error + streak ≥ 2 + 0 active", hv)
	}
	snap := getPlacement(t, srv.URL)
	if snap.Err == "" || !snap.Infeasible {
		t.Fatalf("placement snapshot hides the failure: %+v", snap)
	}
	if snap.Cycle <= cycleAtFailure {
		t.Fatalf("cycle number frozen at %d during failures", snap.Cycle)
	}
	// The failing cycles are in the history too, so trajectory and
	// snapshot agree.
	mv := getMetrics(t, srv.URL)
	last := mv.History[len(mv.History)-1]
	if last.Err == "" || !last.Infeasible || last.Cycle != snap.Cycle {
		t.Fatalf("history disagrees with snapshot: %+v vs cycle %d", last, snap.Cycle)
	}

	// A replacement node arrives; the next cycle recovers everything.
	status, body := do(t, http.MethodPost, srv.URL+"/v1/nodes",
		AddNodeRequest{Name: "spare", CPUMHz: 3000, MemMB: 4096})
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/nodes: status %d: %s", status, body)
	}
	clock.Advance(120)

	hv = getHealth(t, srv.URL)
	if hv.Status != "ok" || hv.LastError != "" || hv.InfeasibleStreak != 0 {
		t.Fatalf("health after recovery = %+v, want ok", hv)
	}
	snap = getPlacement(t, srv.URL)
	if snap.Err != "" {
		t.Fatalf("placement still carries error after recovery: %+v", snap)
	}
	job := jobView(t, snap, "batch")
	if job.Status != "running" || job.Node != "spare" {
		t.Fatalf("job not rescued onto the spare: %+v", job)
	}
	if job.DoneMcycles < doneBefore {
		t.Fatalf("recovery lost progress: %v -> %v", doneBefore, job.DoneMcycles)
	}
	if snap.Web[0].AllocMHz <= 0 || snap.Web[0].Utility <= 0 {
		t.Fatalf("web app not recovered within 2 cycles: %+v", snap.Web[0])
	}
	if getMetrics(t, srv.URL).Actions["rescue"] < 1 {
		t.Fatal("no rescue counted through the failure")
	}
}

// TestDaemonDrainZeroLostWork drains the node hosting a running job and
// checks the graceful contract: the job live-migrates (no suspend, no
// rescue), loses no progress, completes on time, and the emptied node
// can then be removed.
func TestDaemonDrainZeroLostWork(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// ~500 s of work at full speed against a 3600 s deadline.
	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "steady", WorkMcycles: 1.4e6, MaxSpeedMHz: 2800, MemoryMB: 1000, Deadline: 3600,
	}, true); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	before := getPlacement(t, srv.URL)
	job := jobView(t, before, "steady")
	if job.Status != "running" {
		t.Fatalf("job not running: %+v", job)
	}
	drained := job.Node

	if status, body := do(t, http.MethodPost, srv.URL+"/v1/nodes/"+drained+"/drain", nil); status != http.StatusOK {
		t.Fatalf("drain: status %d: %s", status, body)
	}
	// Removal while the job is still on the node must be refused.
	if status, _ := do(t, http.MethodDelete, srv.URL+"/v1/nodes/"+drained, nil); status != http.StatusBadRequest {
		t.Fatalf("remove occupied node: status %d, want 400", status)
	}

	clock.Advance(60)
	mid := jobView(t, getPlacement(t, srv.URL), "steady")
	if mid.Node == drained || mid.Status != "running" {
		t.Fatalf("job not migrated off draining node: %+v", mid)
	}
	if mid.DoneMcycles < job.DoneMcycles {
		t.Fatalf("drain lost progress: %v -> %v", job.DoneMcycles, mid.DoneMcycles)
	}

	clock.Advance(600) // run to completion
	var out struct {
		Jobs []dynplace.JobResult `json:"jobs"`
	}
	_, body := do(t, http.MethodGet, srv.URL+"/v1/jobs", nil)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || !out.Jobs[0].Completed || !out.Jobs[0].MetGoal {
		t.Fatalf("job result = %+v, want completed on time through the drain", out.Jobs)
	}
	if out.Jobs[0].Suspends != 0 {
		t.Fatalf("graceful drain suspended the job %d times, want live migration only", out.Jobs[0].Suspends)
	}
	mv := getMetrics(t, srv.URL)
	if mv.Actions["rescue"] != 0 {
		t.Fatalf("drain counted %d rescues, want 0 (graceful, not a failure)", mv.Actions["rescue"])
	}
	if mv.Actions["migrate"] < 1 {
		t.Fatalf("no migration recorded for the drain: %v", mv.Actions)
	}

	// The node is empty now: removal succeeds and the inventory shrinks.
	if status, body := do(t, http.MethodDelete, srv.URL+"/v1/nodes/"+drained, nil); status != http.StatusOK {
		t.Fatalf("remove drained node: status %d: %s", status, body)
	}
	clock.Advance(60)
	snap := getPlacement(t, srv.URL)
	if len(snap.Nodes) != 1 || snap.Nodes[0].Name == drained {
		t.Fatalf("nodes after removal = %+v, want the surviving node only", snap.Nodes)
	}
}

// TestDaemonNodeAPIValidation exercises the error paths of the node
// lifecycle endpoints.
func TestDaemonNodeAPIValidation(t *testing.T) {
	d, _, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/v1/nodes/ghost/fail", nil, http.StatusNotFound},
		{http.MethodPost, "/v1/nodes/ghost/drain", nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/nodes/ghost", nil, http.StatusNotFound},
		{http.MethodPost, "/v1/nodes", AddNodeRequest{Name: "node-0", CPUMHz: 1000, MemMB: 1000}, http.StatusBadRequest},
		{http.MethodPost, "/v1/nodes", AddNodeRequest{Name: "bad", CPUMHz: 0, MemMB: 1000}, http.StatusBadRequest},
	} {
		if status, body := do(t, tc.method, srv.URL+tc.path, tc.body); status != tc.want {
			t.Errorf("%s %s: status %d (%s), want %d", tc.method, tc.path, status, body, tc.want)
		}
	}
	// Draining a failed node is refused; failing it again is idempotent.
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/nodes/node-1/fail", nil); status != http.StatusOK {
		t.Fatal("fail node-1")
	}
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/nodes/node-1/fail", nil); status != http.StatusOK {
		t.Error("repeated fail should be idempotent")
	}
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/nodes/node-1/drain", nil); status != http.StatusBadRequest {
		t.Error("draining a failed node should be refused")
	}
	// GET /nodes lists states.
	status, body := do(t, http.MethodGet, srv.URL+"/v1/nodes", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/nodes: status %d", status)
	}
	var nodes struct {
		Nodes []NodeView `json:"nodes"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, n := range nodes.Nodes {
		states[n.Name] = n.State
	}
	if states["node-0"] != "active" || states["node-1"] != "failed" {
		t.Fatalf("node states = %v", states)
	}
}

// TestDaemonRampToIdleSchedule is the regression test for the silently
// ignored rate-0 phase: a scheduled ramp to idle must actually quiesce
// the app (zero allocation, zero arrival rate) without removing it, and
// a later load report must revive it.
func TestDaemonRampToIdleSchedule(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "web", ArrivalRate: 10, DemandPerRequest: 40,
		GoalResponseTime: 0.5, MemoryMB: 500,
		LoadSchedule: []dynplace.LoadPhase{{Start: 90, ArrivalRate: 0}},
	}, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60)
	if snap := getPlacement(t, srv.URL); snap.Web[0].AllocMHz <= 0 {
		t.Fatalf("app unplaced while active: %+v", snap.Web[0])
	}

	clock.Advance(60) // cycle at t=120 applies the rate-0 phase
	snap := getPlacement(t, srv.URL)
	w := snap.Web[0]
	if w.ArrivalRate != 0 {
		t.Fatalf("arrival rate = %v after ramp-to-idle phase, want 0", w.ArrivalRate)
	}
	if w.AllocMHz != 0 {
		t.Fatalf("quiesced app still holds %v MHz", w.AllocMHz)
	}
	if w.Utility <= 0 {
		t.Fatalf("quiesced app utility = %v, want its cap (idle is not failure)", w.Utility)
	}
	if hv := getHealth(t, srv.URL); hv.Status != "ok" || hv.WebApps != 1 {
		t.Fatalf("health = %+v, want ok with the app still registered", hv)
	}

	// Revival through the live-sensor endpoint.
	if status, body := do(t, http.MethodPost, srv.URL+"/v1/apps/web/load", SetLoadRequest{ArrivalRate: 25}); status != http.StatusOK {
		t.Fatalf("revive: status %d: %s", status, body)
	}
	clock.Advance(60)
	if snap := getPlacement(t, srv.URL); snap.Web[0].AllocMHz <= 0 || snap.Web[0].ArrivalRate != 25 {
		t.Fatalf("app not revived: %+v", snap.Web[0])
	}

	// Direct rate-0 reports are valid; negative ones are not.
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/apps/web/load", SetLoadRequest{ArrivalRate: 0}); status != http.StatusOK {
		t.Error("rate-0 load report rejected")
	}
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/apps/web/load", SetLoadRequest{ArrivalRate: -1}); status != http.StatusBadRequest {
		t.Error("negative load report accepted")
	}
}
