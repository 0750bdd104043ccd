package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/obs"
	"dynplace/internal/store"
)

// scrapeProm fetches /metrics/prom and returns the parsed exposition,
// failing the test on transport errors, a wrong content type, or any
// text that does not survive the strict parser — this is the
// promlint-style gate run by `make check`.
func scrapeProm(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	return exp
}

func mustValue(t *testing.T, exp *obs.Exposition, name string, labels ...string) float64 {
	t.Helper()
	v, ok := exp.Value(name, labels...)
	if !ok {
		t.Fatalf("series %s%v missing from /metrics/prom", name, labels)
	}
	return v
}

// newShardedDurableDaemon builds the obs tests' scenario: a recovered
// durable daemon on four nodes in two zones, loadWorkload registered,
// not yet started — every instrumented stage of a cycle (zone solves,
// journal, WAL append and fsync) has something to record.
func newShardedDurableDaemon(t *testing.T) (*Daemon, *SimClock) {
	t.Helper()
	cl, err := cluster.Uniform(4, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
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
		Store:        st,
		Dynamic:      control.DynamicConfig{Shards: 2, ShardSeed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	loadWorkload(t, d)
	return d, clock
}

// TestDaemonPromExposition is the acceptance test for the Prometheus
// surface: a durable sharded daemon runs cycles and serves traffic, and
// GET /metrics/prom must emit parseable text covering cycle latency,
// per-span durations, per-zone solve times, per-app dispatch counts,
// HTTP response classes, WAL append/fsync latency, and the infeasible/rescue/poison signals — with
// every counter monotonically non-decreasing across scrapes.
func TestDaemonPromExposition(t *testing.T) {
	d, clock := newShardedDurableDaemon(t)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120) // cycles at t=0, 60, 120
	for i := 0; i < 5; i++ {
		do(t, http.MethodPost, srv.URL+"/v1/route/shop", nil)
	}
	do(t, http.MethodPost, srv.URL+"/v1/route/nosuchapp", nil)
	do(t, http.MethodGet, srv.URL+"/v1/healthz", nil)

	exp := scrapeProm(t, srv.URL)
	cycles := mustValue(t, exp, "dynplace_cycles_total")
	if cycles < 3 {
		t.Fatalf("dynplace_cycles_total = %v, want >= 3", cycles)
	}
	if got := mustValue(t, exp, "dynplace_cycle_duration_seconds_count"); got != cycles {
		t.Fatalf("cycle_duration count = %v, want %v (one observation per cycle)", got, cycles)
	}
	for _, span := range []string{"demand_update", "inventory_snapshot", "build_problem", "extract", "apply", "publish", "journal"} {
		if got := mustValue(t, exp, "dynplace_cycle_span_duration_seconds_count", "span", span); got != cycles {
			t.Errorf("span %q observation count = %v, want %v", span, got, cycles)
		}
	}
	for _, zone := range []string{"0", "1"} {
		if got := mustValue(t, exp, "dynplace_zone_solve_duration_seconds_count", "zone", zone); got != cycles {
			t.Errorf("zone %s solve count = %v, want %v", zone, got, cycles)
		}
	}
	if got := mustValue(t, exp, "dynplace_dispatch_requests_total", "app", "shop"); got != 5 {
		t.Errorf("shop dispatched = %v, want 5", got)
	}
	if got := mustValue(t, exp, "dynplace_http_responses_total", "class", "4xx"); got < 1 {
		t.Errorf("4xx responses = %v, want >= 1 (the nosuchapp route)", got)
	}
	if got := mustValue(t, exp, "dynplace_wal_append_duration_seconds_count"); got == 0 {
		t.Error("no WAL append latency observations despite durable mutations")
	}
	if got := mustValue(t, exp, "dynplace_wal_fsync_duration_seconds_count"); got == 0 {
		t.Error("no WAL fsync latency observations despite durable mutations")
	}
	if got := mustValue(t, exp, "dynplace_infeasible_cycles_total"); got != 0 {
		t.Errorf("infeasible cycles = %v, want 0 on a healthy cluster", got)
	}
	if got := mustValue(t, exp, "dynplace_actions_total", "action", "rescue"); got != 0 {
		t.Errorf("rescue actions = %v, want 0 with no failed nodes", got)
	}
	if got := mustValue(t, exp, "dynplace_store_poisoned"); got != 0 {
		t.Errorf("store_poisoned = %v, want 0 on a healthy store", got)
	}
	if got := mustValue(t, exp, "dynplace_http_request_duration_seconds_count", "route", "GET /v1/healthz"); got == 0 {
		t.Error("no HTTP latency observations for GET /v1/healthz")
	}
	if got := mustValue(t, exp, "dynplace_web_utility", "app", "shop"); got <= 0 {
		t.Errorf("web utility for shop = %v, want > 0", got)
	}

	// Counters must be monotonic: run more cycles and traffic, rescrape,
	// and require every counter sample to be >= its previous value.
	clock.Advance(120)
	do(t, http.MethodPost, srv.URL+"/v1/route/shop", nil)
	exp2 := scrapeProm(t, srv.URL)
	checked := 0
	for _, name := range exp.Order {
		f := exp.Families[name]
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			key := make([]string, 0, len(s.Labels)*2)
			for _, kv := range s.Labels {
				key = append(key, kv[0], kv[1])
			}
			after, ok := exp2.Value(s.Name, key...)
			if !ok {
				t.Errorf("counter series %s%v vanished between scrapes", s.Name, key)
				continue
			}
			if after < s.Value {
				t.Errorf("counter %s%v went backwards: %v -> %v", s.Name, key, s.Value, after)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("monotonicity check covered only %d counter series", checked)
	}
}

// TestDebugCycleTimeline checks GET /debug/cycles/{n}: the span
// timeline of a retained cycle is complete (every control-loop stage
// appears with a start offset and duration), unknown cycles 404, and
// malformed ordinals 400.
func TestDebugCycleTimeline(t *testing.T) {
	d, clock, srv := newTestDaemon(t)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)
	last := d.Placement().Cycle

	status, body := do(t, http.MethodGet, fmt.Sprintf("%s/v1/debug/cycles/%d", srv.URL, last), nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/debug/cycles/%d: status %d: %s", last, status, body)
	}
	var view obs.TraceView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Cycle != last {
		t.Fatalf("trace cycle = %d, want %d", view.Cycle, last)
	}
	got := map[string]bool{}
	for _, sp := range view.Spans {
		got[sp.Name] = true
		if sp.DurationMicros < 0 || sp.StartMicros < 0 {
			t.Errorf("span %q has negative timing: start=%d dur=%d", sp.Name, sp.StartMicros, sp.DurationMicros)
		}
	}
	for _, want := range []string{"demand_update", "inventory_snapshot", "build_problem", "solve", "extract", "apply", "publish"} {
		if !got[want] {
			t.Errorf("span %q missing from cycle %d timeline (have %v)", want, last, view.Spans)
		}
	}
	if view.DurationMicros < 0 {
		t.Errorf("cycle duration = %d, want >= 0", view.DurationMicros)
	}

	status, body = do(t, http.MethodGet, srv.URL+"/v1/debug/cycles", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/debug/cycles: status %d: %s", status, body)
	}
	var recent struct {
		Cycles []obs.TraceView `json:"cycles"`
	}
	if err := json.Unmarshal(body, &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Cycles) == 0 {
		t.Fatal("GET /v1/debug/cycles returned no retained traces")
	}

	if status, _ = do(t, http.MethodGet, srv.URL+"/v1/debug/cycles/999999", nil); status != http.StatusNotFound {
		t.Fatalf("GET /v1/debug/cycles/999999: status %d, want 404", status)
	}
	if status, _ = do(t, http.MethodGet, srv.URL+"/v1/debug/cycles/xyz", nil); status != http.StatusBadRequest {
		t.Fatalf("GET /v1/debug/cycles/xyz: status %d, want 400", status)
	}
}

// TestDaemonMetricsScrapeRace hammers every read surface — /metrics,
// /metrics/prom, /healthz, /debug/cycles, /placement — while a
// wall-clock daemon runs ~10ms cycles and concurrent writers mutate
// load and route traffic. Run under -race this is the audit that
// scrapes never read daemon state unlocked, and that a placement read
// racing a publish gets one whole published encoding.
func TestDaemonMetricsScrapeRace(t *testing.T) {
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Cluster:       cl,
		CycleSeconds:  0.01,
		Costs:         cluster.FreeCostModel(),
		History:       16,
		SlowCycleWarn: -1, // 10ms cycles would spam slow-cycle warnings
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	loadWorkload(t, d)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	get := func(path string) {
		defer wg.Done()
		for time.Now().Before(deadline) {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}
	wg.Add(4)
	go get("/v1/metrics")
	go get("/v1/metrics/prom")
	go get("/v1/healthz")
	go get("/v1/debug/cycles")
	// Placement readers see only complete bodies, and never an older
	// cycle than they saw before.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seen int64
		for time.Now().Before(deadline) {
			resp, err := http.Get(srv.URL + "/v1/placement")
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
				t.Errorf("GET /v1/placement: status %d, %v, body not valid JSON: %.80q", resp.StatusCode, err, body)
				return
			}
			var snap struct{ Cycle int64 }
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Error(err)
				return
			}
			if snap.Cycle < seen {
				t.Errorf("GET /v1/placement: cycle %d read after cycle %d", snap.Cycle, seen)
				return
			}
			seen = snap.Cycle
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rate := 10.0
		for time.Now().Before(deadline) {
			rate += 1
			if err := d.SetArrivalRate("shop", rate); err != nil {
				t.Error(err)
				return
			}
			d.Router().Dispatch("shop", 0.5)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// The hammered exposition must still parse and agree with itself.
	exp := scrapeProm(t, srv.URL)
	if v := mustValue(t, exp, "dynplace_cycles_total"); v < 2 {
		t.Fatalf("dynplace_cycles_total = %v after 300ms of 10ms cycles", v)
	}
}

// TestCycleInstrumentCost is the observability-overhead gate: it counts
// the instrument operations of one steady-state control cycle — the
// spans of its trace plus every histogram observation the cycle caused
// anywhere in the registry — pins that count, and bounds count × the
// measured cost of one Histogram.Observe (the unit dynbench reports as
// obs.histogram_observe_ns) by 0.1 % of the shortest cycle the
// benchmark runs, replay_diurnal's 3 ms. The count is per cycle, not
// per node or per candidate: an Observe added inside such a loop moves
// the pin here and blows the budget at 10 000 nodes. Dispatch-path cost
// is dynbench's router.dispatch_ns, measured on the daemon's router,
// and TestDispatchZeroAllocs holds a pick at zero allocations.
func TestCycleInstrumentCost(t *testing.T) {
	d, clock := newShardedDurableDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	observations := func() (n float64) {
		var text strings.Builder
		if err := d.obs.reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		exp, err := obs.ParseExposition(text.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range exp.Families {
			for _, s := range f.Samples {
				if f.Type == "histogram" && strings.HasSuffix(s.Name, "_count") {
					n += s.Value
				}
			}
		}
		return n
	}
	clock.Advance(180) // placement settled, both jobs running
	before := observations()
	clock.Advance(60) // exactly one more cycle
	view, ok := d.obs.tracer.Cycle(d.cycles.Load())
	if !ok {
		t.Fatalf("no trace retained for cycle %d", d.cycles.Load())
	}
	// 12 spans (demand_update, inventory_snapshot, build_problem,
	// shard_rebalance, two zone solves, merge_verify, explain, extract,
	// apply, publish, journal), one histogram observation per span, the
	// cycle histogram, WAL append and WAL fsync.
	const pinned = 27
	ops := len(view.Spans) + int(observations()-before)
	if ops != pinned {
		t.Fatalf("one cycle performed %d instrument operations (%d spans), pinned %d: "+
			"re-pin only if the new ones are per cycle and the budget below still holds",
			ops, len(view.Spans), pinned)
	}

	h := obs.NewHistogram(cycleBuckets)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.004) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v objects per call, want 0", allocs)
	}
	if raceEnabled() {
		t.Skip("per-operation cost is not meaningful under the race detector")
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-5)
		}
	})
	perOp := float64(res.T.Nanoseconds()) / float64(res.N)
	const budgetNs = 0.001 * 3e6
	if cost := float64(ops) * perOp; cost > budgetNs {
		t.Fatalf("%d operations × %.1f ns = %.0f ns per cycle, over the %.0f ns budget", ops, perOp, cost, budgetNs)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
