package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
)

func newTestDaemon(t *testing.T) (*Daemon, *SimClock, *httptest.Server) {
	t.Helper()
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster:      cl,
		CycleSeconds: 60,
		Costs:        cluster.FreeCostModel(),
		Clock:        clock,
		History:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(d.Stop)
	return d, clock, srv
}

func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func jobSpeed(s PlacementSnapshot) float64 {
	var sum float64
	for _, j := range s.Jobs {
		sum += j.SpeedMHz
	}
	return sum
}

func getPlacement(t *testing.T, url string) PlacementSnapshot {
	t.Helper()
	status, body := do(t, http.MethodGet, url+"/v1/placement", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/placement: status %d: %s", status, body)
	}
	var snap PlacementSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("GET /v1/placement: %v", err)
	}
	return snap
}

// TestDaemonReactsToLoadChange is the subsystem's acceptance scenario: a
// daemon under virtual time accepts a web app and a batch job over HTTP,
// and after the app's request rate jumps, the placement served by
// GET /placement shifts CPU from the job to the app across control
// cycles — the paper's control loop, live.
func TestDaemonReactsToLoadChange(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	status, body := do(t, http.MethodPost, srv.URL+"/v1/apps", AddAppRequest{
		App: dynplace.WebAppSpec{
			Name: "shop", ArrivalRate: 5, DemandPerRequest: 50,
			BaseLatency: 0.02, GoalResponseTime: 0.2, MemoryMB: 1000,
		},
	})
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/apps: status %d: %s", status, body)
	}
	// Two jobs that together can absorb nearly the whole cluster, so web
	// and batch genuinely contend for CPU.
	for k := 0; k < 2; k++ {
		status, body = do(t, http.MethodPost, srv.URL+"/v1/jobs", SubmitJobRequest{
			Job: dynplace.JobSpec{
				Name: fmt.Sprintf("crunch-%d", k), WorkMcycles: 5e6, MaxSpeedMHz: 2800,
				MemoryMB: 1000, Deadline: 2400,
			},
			Relative: true,
		})
		if status != http.StatusCreated {
			t.Fatalf("POST /v1/jobs: status %d: %s", status, body)
		}
	}

	// Two cycles at low load (t=0 and t=60).
	clock.Advance(60)
	before := getPlacement(t, srv.URL)
	if before.Cycle < 2 {
		t.Fatalf("cycle = %d after Advance(60), want >= 2", before.Cycle)
	}
	if len(before.Web) != 1 || before.Web[0].Name != "shop" {
		t.Fatalf("web placement = %+v, want app shop", before.Web)
	}
	if len(before.Jobs) != 2 {
		t.Fatalf("job placement = %+v, want both crunch jobs", before.Jobs)
	}
	if jobSpeed(before) <= 0 {
		t.Fatalf("aggregate job speed = %v at low web load, want > 0", jobSpeed(before))
	}

	// The live sensor reports a demand surge: λ 5 → 40 req/s.
	status, body = do(t, http.MethodPost, srv.URL+"/v1/apps/shop/load", SetLoadRequest{ArrivalRate: 40})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/apps/shop/load: status %d: %s", status, body)
	}

	// At least two more cycles under high load (t=120, t=180).
	clock.Advance(120)
	after := getPlacement(t, srv.URL)
	if after.Cycle < before.Cycle+2 {
		t.Fatalf("cycle advanced %d -> %d, want >= 2 more cycles", before.Cycle, after.Cycle)
	}

	// The controller must have shifted CPU toward the web app. The surge
	// raises the app's minimum useful allocation from ~528 to ~2278 MHz.
	if gain := after.Web[0].AllocMHz - before.Web[0].AllocMHz; gain < 500 {
		t.Errorf("web allocation went %v -> %v MHz (gain %v), want a substantial increase",
			before.Web[0].AllocMHz, after.Web[0].AllocMHz, gain)
	}
	if after.Web[0].ArrivalRate != 40 {
		t.Errorf("snapshot arrival rate = %v, want 40", after.Web[0].ArrivalRate)
	}
	if squeeze := jobSpeed(before) - jobSpeed(after); squeeze < 500 {
		t.Errorf("aggregate job speed went %v -> %v MHz, want it squeezed by the web surge",
			jobSpeed(before), jobSpeed(after))
	}

	// Router weights must reflect the new placement.
	var alloc float64
	for _, in := range after.Web[0].Instances {
		alloc += in.PowerMHz
	}
	if alloc <= 0 {
		t.Errorf("router dispatch weights sum to %v, want > 0", alloc)
	}

	// The metrics history retains the whole trajectory.
	status, body = do(t, http.MethodGet, srv.URL+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", status, body)
	}
	var mv MetricsView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatal(err)
	}
	if int64(len(mv.History)) != after.Cycle {
		t.Errorf("history has %d snapshots, want %d", len(mv.History), after.Cycle)
	}
	if _, ok := mv.Router["shop"]; !ok {
		t.Errorf("router stats missing app shop: %v", mv.Router)
	}
}

// TestDaemonRoutesTraffic drives concurrent requests through the HTTP
// routing endpoint while cycles run, checking dispatch accounting.
func TestDaemonRoutesTraffic(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "api", ArrivalRate: 10, DemandPerRequest: 60,
		BaseLatency: 0.01, GoalResponseTime: 0.3, MemoryMB: 800,
	}, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60) // place the app so the router has weights

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	routed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				status, body := do(t, http.MethodPost, srv.URL+"/v1/route/api", nil)
				if status != http.StatusOK && status != http.StatusAccepted {
					t.Errorf("POST /v1/route/api: status %d: %s", status, body)
					return
				}
				if status == http.StatusOK {
					var rr RouteResponse
					if err := json.Unmarshal(body, &rr); err != nil || rr.Node == "" {
						t.Errorf("bad route response %s: %v", body, err)
						return
					}
					mu.Lock()
					routed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	stats, ok := d.Router().StatsFor("api")
	if !ok {
		t.Fatal("router lost the app")
	}
	if stats.Dispatched != routed {
		t.Errorf("router dispatched %d, handlers saw %d", stats.Dispatched, routed)
	}
	if status, _ := do(t, http.MethodPost, srv.URL+"/v1/route/ghost", nil); status != http.StatusNotFound {
		t.Errorf("routing to unknown app: status %d, want 404", status)
	}
}

// TestDaemonAPIValidation exercises the error paths of the API surface.
func TestDaemonAPIValidation(t *testing.T) {
	d, _, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	// Invalid spec: zero goal.
	status, _ := do(t, http.MethodPost, srv.URL+"/v1/apps", AddAppRequest{
		App: dynplace.WebAppSpec{Name: "bad", ArrivalRate: 1},
	})
	if status != http.StatusBadRequest {
		t.Errorf("invalid app: status %d, want 400", status)
	}

	ok := dynplace.WebAppSpec{
		Name: "dup", ArrivalRate: 2, DemandPerRequest: 40,
		GoalResponseTime: 0.5, MemoryMB: 500,
	}
	if status, _ = do(t, http.MethodPost, srv.URL+"/v1/apps", AddAppRequest{App: ok}); status != http.StatusCreated {
		t.Fatalf("valid app: status %d, want 201", status)
	}
	if status, _ = do(t, http.MethodPost, srv.URL+"/v1/apps", AddAppRequest{App: ok}); status != http.StatusBadRequest {
		t.Errorf("duplicate app: status %d, want 400", status)
	}

	// Before the first cycle places the app, requests queue under
	// overload protection rather than bouncing as unknown.
	if status, body := do(t, http.MethodPost, srv.URL+"/v1/route/dup", nil); status != http.StatusAccepted {
		t.Errorf("route before first placement: status %d (%s), want 202", status, body)
	}

	// Unknown app operations.
	if status, _ = do(t, http.MethodDelete, srv.URL+"/v1/apps/ghost", nil); status != http.StatusNotFound {
		t.Errorf("delete unknown app: status %d, want 404", status)
	}
	if status, _ = do(t, http.MethodPost, srv.URL+"/v1/apps/ghost/load", SetLoadRequest{ArrivalRate: 5}); status != http.StatusNotFound {
		t.Errorf("load for unknown app: status %d, want 404", status)
	}

	// Duplicate job names are rejected, even after completion.
	job := dynplace.JobSpec{Name: "j", WorkMcycles: 1000, MaxSpeedMHz: 1000, MemoryMB: 100, Deadline: 600}
	if status, _ = do(t, http.MethodPost, srv.URL+"/v1/jobs", SubmitJobRequest{Job: job, Relative: true}); status != http.StatusCreated {
		t.Errorf("valid job: status %d, want 201", status)
	}
	if status, _ = do(t, http.MethodPost, srv.URL+"/v1/jobs", SubmitJobRequest{Job: job, Relative: true}); status != http.StatusBadRequest {
		t.Errorf("duplicate job: status %d, want 400", status)
	}

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Removing the app withdraws its routing entry.
	if status, _ = do(t, http.MethodDelete, srv.URL+"/v1/apps/dup", nil); status != http.StatusOK {
		t.Errorf("delete app: status %d, want 200", status)
	}
	var names struct {
		Apps []string `json:"apps"`
	}
	_, body := do(t, http.MethodGet, srv.URL+"/v1/apps", nil)
	if err := json.Unmarshal(body, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Apps) != 0 {
		t.Errorf("apps after delete = %v, want none", names.Apps)
	}
}

// TestDaemonJobLifecycle runs a job to completion under virtual time and
// checks the outcome reported by GET /jobs and /healthz.
func TestDaemonJobLifecycle(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// 600k megacycles at up to 2500 MHz: ~240 s of work, deadline 600 s.
	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "etl", WorkMcycles: 6e5, MaxSpeedMHz: 2500, MemoryMB: 500, Deadline: 600,
	}, true); err != nil {
		t.Fatal(err)
	}
	clock.Advance(600)

	status, body := do(t, http.MethodGet, srv.URL+"/v1/jobs", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d: %s", status, body)
	}
	var out struct {
		Jobs []dynplace.JobResult `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 {
		t.Fatalf("jobs = %+v, want 1", out.Jobs)
	}
	r := out.Jobs[0]
	if !r.Completed || !r.MetGoal {
		t.Errorf("job result = %+v, want completed on time", r)
	}

	var hv HealthView
	_, body = do(t, http.MethodGet, srv.URL+"/v1/healthz", nil)
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "ok" || hv.LiveJobs != 0 {
		t.Errorf("health = %+v, want ok with no live jobs", hv)
	}
	if hv.Now != 600 {
		t.Errorf("health now = %v, want 600", hv.Now)
	}
}

// TestDaemonStopHaltsCycles checks that Stop cancels the pending tick.
func TestDaemonStopHaltsCycles(t *testing.T) {
	d, clock, _ := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(60)
	cyclesAtStop := d.Placement().Cycle
	if cyclesAtStop == 0 {
		t.Fatal("no cycles ran before Stop")
	}
	d.Stop()
	clock.Advance(600)
	if got := d.Placement().Cycle; got != cyclesAtStop {
		t.Errorf("cycles advanced to %d after Stop, want frozen at %d", got, cyclesAtStop)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// Exactly one tick chain after restart: the immediate tick plus one
	// per elapsed cycle, never double-frequency.
	clock.Advance(60)
	if got := d.Placement().Cycle; got != cyclesAtStop+2 {
		t.Errorf("cycles = %d after restart+Advance(60), want %d", got, cyclesAtStop+2)
	}
}

// TestDaemonDrainsQueueWhenCapacityReturns parks requests in the
// overload-protection queue while an app is unplaceable, then frees
// capacity and checks the queue is drained on the next cycle.
func TestDaemonDrainsQueueWhenCapacityReturns(t *testing.T) {
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

	// Two 2500 MB apps on one 4096 MB node: only one fits.
	for _, name := range []string{"a", "b"} {
		if err := d.AddWebApp(dynplace.WebAppSpec{
			Name: name, ArrivalRate: 2, DemandPerRequest: 40,
			GoalResponseTime: 0.5, MemoryMB: 2500,
		}, false); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(60)

	snap := d.Placement()
	var placed, starved string
	for _, w := range snap.Web {
		if w.AllocMHz > 0 {
			placed = w.Name
		} else {
			starved = w.Name
		}
	}
	if placed == "" || starved == "" {
		t.Fatalf("want one placed and one starved app, got %+v", snap.Web)
	}

	// Requests for the starved app park in the protection queue.
	for i := 0; i < 3; i++ {
		if status, body := do(t, http.MethodPost, srv.URL+"/v1/route/"+starved, nil); status != http.StatusAccepted {
			t.Fatalf("route to starved app: status %d: %s", status, body)
		}
	}
	if st, _ := d.Router().StatsFor(starved); st.QueueDepth != 3 {
		t.Fatalf("queued = %d, want 3", st.QueueDepth)
	}

	// Free the node; the next cycle places the starved app and must
	// drain its queue.
	if err := d.RemoveWebApp(placed); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	st, _ := d.Router().StatsFor(starved)
	if st.QueueDepth != 0 {
		t.Errorf("queued = %d after capacity returned, want drained to 0", st.QueueDepth)
	}
	if status, body := do(t, http.MethodPost, srv.URL+"/v1/route/"+starved, nil); status != http.StatusOK {
		t.Errorf("route after drain: status %d: %s", status, body)
	}
}

// TestDaemonLoadSchedulePruning checks scheduled phases apply at their
// start times and are dropped once consumed.
func TestDaemonLoadSchedulePruning(t *testing.T) {
	d, clock, _ := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "web", ArrivalRate: 2, DemandPerRequest: 40,
		GoalResponseTime: 0.5, MemoryMB: 500,
		LoadSchedule: []dynplace.LoadPhase{
			{Start: 30, ArrivalRate: 10},
			{Start: 90, ArrivalRate: 20},
		},
	}, false); err != nil {
		t.Fatal(err)
	}

	rate := func() float64 {
		snap := d.Placement()
		if len(snap.Web) != 1 {
			t.Fatalf("placement = %+v, want one app", snap.Web)
		}
		return snap.Web[0].ArrivalRate
	}
	pending := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.planner.LoadSchedule("web"))
	}

	clock.Advance(60) // cycles at 0, 60: first phase begun
	if got := rate(); got != 10 {
		t.Errorf("rate = %v at t=60, want 10", got)
	}
	if got := pending(); got != 1 {
		t.Errorf("pending phases = %d at t=60, want 1", got)
	}
	clock.Advance(60) // cycle at 120: second phase begun
	if got := rate(); got != 20 {
		t.Errorf("rate = %v at t=120, want 20", got)
	}
	if got := pending(); got != 0 {
		t.Errorf("pending phases = %d at t=120, want schedule consumed", got)
	}
}

// TestWallClockDaemon smoke-tests the production clock path: a real
// daemon with a tiny cycle makes progress in real time.
func TestWallClockDaemon(t *testing.T) {
	cl, err := cluster.Uniform(1, 2000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Cluster: cl, CycleSeconds: 0.01, Costs: cluster.FreeCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	start := time.Now()
	for d.Placement().Cycle < 3 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("wall-clock daemon made no progress in 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Start(); err == nil {
		t.Error("second Start succeeded, want error")
	}
}
