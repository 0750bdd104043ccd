package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dynplace"
)

// decodeErrorEnvelope parses the uniform error body and fails the test
// on any shape deviation — the envelope is a wire contract.
func decodeErrorEnvelope(t *testing.T, body []byte) ErrorDetail {
	t.Helper()
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", body)
	}
	return env.Error
}

// TestV1Aliases checks the daemon has one URL tree: every route of
// docs/API.md answers under /v1, its bare unversioned twin (the alias
// earlier releases kept) is the mux's plain 404, and the exposition
// carries one route label per registered pattern.
func TestV1Aliases(t *testing.T) {
	// net/http's own 404 body: what ServeMux writes for a path no
	// pattern matches, as opposed to the daemon's JSON envelope.
	const muxNotFound = "404 page not found\n"
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
	clock.Advance(120)

	// Pattern as registered, then the path that exercises it. Statuses
	// other than 200 are the handler's own answer to an empty body or a
	// daemon without forecasting or a store — still not the mux's 404.
	routes := []struct {
		pattern, path string
		want          int
	}{
		{"GET /v1/healthz", "/healthz", http.StatusOK},
		{"GET /v1/placement", "/placement", http.StatusOK},
		{"GET /v1/metrics", "/metrics", http.StatusOK},
		{"GET /v1/metrics/prom", "/metrics/prom", http.StatusOK},
		{"GET /v1/explain", "/explain", http.StatusOK},
		{"GET /v1/explain/apps/{name}", "/explain/apps/shop", http.StatusOK},
		{"GET /v1/debug/cycles", "/debug/cycles", http.StatusOK},
		{"GET /v1/debug/cycles/{n}", "/debug/cycles/1", http.StatusOK},
		{"GET /v1/debug/bundle", "/debug/bundle", http.StatusOK},
		{"GET /v1/apps", "/apps", http.StatusOK},
		{"POST /v1/apps", "/apps", http.StatusBadRequest},
		{"GET /v1/apps/{name}/forecast", "/apps/shop/forecast", http.StatusConflict},
		{"POST /v1/apps/{name}/load", "/apps/shop/load", http.StatusBadRequest},
		{"POST /v1/route/{name}", "/route/shop", http.StatusOK},
		{"GET /v1/jobs", "/jobs", http.StatusOK},
		{"POST /v1/jobs", "/jobs", http.StatusBadRequest},
		{"GET /v1/nodes", "/nodes", http.StatusOK},
		{"POST /v1/nodes", "/nodes", http.StatusBadRequest},
		{"POST /v1/nodes/{name}/drain", "/nodes/ghost/drain", http.StatusNotFound},
		{"POST /v1/nodes/{name}/fail", "/nodes/ghost/fail", http.StatusNotFound},
		{"DELETE /v1/nodes/{name}", "/nodes/ghost", http.StatusNotFound},
		{"GET /v1/state", "/state", http.StatusOK},
		{"POST /v1/state/snapshot", "/state/snapshot", http.StatusConflict},
		{"DELETE /v1/apps/{name}", "/apps/shop", http.StatusOK},
	}
	for _, r := range routes {
		method, _, _ := strings.Cut(r.pattern, " ")
		status, body := do(t, method, srv.URL+"/v1"+r.path, nil)
		if status != r.want || string(body) == muxNotFound {
			t.Errorf("%s /v1%s: status %d, want %d: %s", method, r.path, status, r.want, body)
		}
		status, body = do(t, method, srv.URL+r.path, nil)
		if status != http.StatusNotFound || string(body) != muxNotFound {
			t.Errorf("%s %s: status %d %q, want the mux's plain 404", method, r.path, status, body)
		}
	}

	// One dynplace_http_* series set per registered pattern: the route
	// label values are exactly the table above.
	labels := map[string]bool{}
	for _, s := range scrapeProm(t, srv.URL).Families["dynplace_http_request_duration_seconds"].Samples {
		if route, ok := s.Label("route"); ok && s.Name == "dynplace_http_request_duration_seconds_count" {
			if labels[route] {
				t.Errorf("route label %q exposed twice", route)
			}
			labels[route] = true
		}
	}
	for _, r := range routes {
		if !labels[r.pattern] {
			t.Errorf("no dynplace_http_request_duration_seconds series for route %q", r.pattern)
		}
		delete(labels, r.pattern)
	}
	for route := range labels {
		t.Errorf("route label %q matches no /v1 route of docs/API.md", route)
	}
}

// TestErrorEnvelope checks the structured error contract: every failure
// carries {"error": {"code", "message"}} with the documented
// machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	d, _, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"unknown app route", http.MethodPost, "/v1/route/ghost", nil,
			http.StatusNotFound, "not_found"},
		{"unknown app removal", http.MethodDelete, "/v1/apps/ghost", nil,
			http.StatusNotFound, "not_found"},
		{"unknown node drain", http.MethodPost, "/v1/nodes/ghost/drain", nil,
			http.StatusNotFound, "not_found"},
		{"bad spec", http.MethodPost, "/v1/apps",
			AddAppRequest{App: dynplace.WebAppSpec{Name: "bad", ArrivalRate: -1}},
			http.StatusBadRequest, "bad_spec"},
		{"malformed body", http.MethodPost, "/v1/apps",
			map[string]string{"nonsense": "field"},
			http.StatusBadRequest, "bad_request"},
		{"bad cycle number", http.MethodGet, "/v1/debug/cycles/zzz", nil,
			http.StatusBadRequest, "bad_request"},
		{"missing trace", http.MethodGet, "/v1/debug/cycles/999999", nil,
			http.StatusNotFound, "not_found"},
		{"snapshot without store", http.MethodPost, "/v1/state/snapshot", nil,
			http.StatusConflict, "bad_request"},
		{"batch size out of range", http.MethodPost, "/v1/route/ghost",
			RouteRequest{N: maxRouteBatch + 1},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, tc.method, srv.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", status, tc.wantStatus, body)
			}
			if det := decodeErrorEnvelope(t, body); det.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (message %q)", det.Code, tc.wantCode, det.Message)
			}
		})
	}
}

// TestBatchRoute covers the bulk dataplane endpoint: tallies must
// partition the batch, per-node counts must sum to the dispatched
// count, and n ≤ 1 must keep single-request semantics.
func TestBatchRoute(t *testing.T) {
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
	clock.Advance(120)

	status, body = do(t, http.MethodPost, srv.URL+"/v1/route/shop", RouteRequest{N: 5000})
	if status != http.StatusOK {
		t.Fatalf("batch route: status %d: %s", status, body)
	}
	var res BatchRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("batch route body: %v: %s", err, body)
	}
	if res.Requests != 5000 || res.Dispatched != 5000 || res.Queued != 0 || res.Rejected != 0 {
		t.Fatalf("batch result = %+v, want 5000 dispatched", res)
	}
	sum := 0
	for _, n := range res.PerNode {
		sum += n
	}
	if sum != res.Dispatched {
		t.Fatalf("sum(PerNode) = %d, want %d", sum, res.Dispatched)
	}
	if st, _ := d.Router().StatsFor("shop"); st.Dispatched != 5000 {
		t.Fatalf("router stats dispatched = %d, want 5000", st.Dispatched)
	}

	// n=1 keeps the single-request response shape.
	status, body = do(t, http.MethodPost, srv.URL+"/v1/route/shop", RouteRequest{N: 1})
	if status != http.StatusOK {
		t.Fatalf("n=1 route: status %d: %s", status, body)
	}
	var single RouteResponse
	if err := json.Unmarshal(body, &single); err != nil || single.Node == "" {
		t.Fatalf("n=1 route body = %s (err %v), want single RouteResponse", body, err)
	}
}

// TestRejectionRetryAfter checks overload rejections answer 503 with a
// Retry-After header sized to the control cycle, for both the single
// and the batch form.
func TestRejectionRetryAfter(t *testing.T) {
	d, _, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// An app the placement loop has never served: no capacity, and the
	// default test config has QueueCap 0 → 128... use the router
	// directly to fill the queue deterministically instead.
	d.Router().Update("dark", nil)
	for {
		node, err := d.Router().Dispatch("dark", 0.5)
		if err != nil {
			break // queue full: next HTTP dispatch must reject
		}
		if node != "" {
			t.Fatalf("dark app dispatched to %q, want queue only", node)
		}
	}

	for _, req := range []any{nil, RouteRequest{N: 100}} {
		var rd io.Reader
		if req != nil {
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		resp, err := http.Post(srv.URL+"/v1/route/dark", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
		}
		ra := resp.Header.Get("Retry-After")
		secs, convErr := strconv.Atoi(ra)
		if convErr != nil || secs < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", ra)
		}
		if det := decodeErrorEnvelope(t, body); det.Code != "rejected" {
			t.Errorf("code = %q, want \"rejected\"", det.Code)
		}
	}
}

// TestBatchRouteOverflow checks a batch that only partially fits the
// queue still answers 200 with the honest split.
func TestBatchRouteOverflow(t *testing.T) {
	d, _, srv := newTestDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Router().Update("dark", nil) // never placed: queue-only

	status, body := do(t, http.MethodPost, srv.URL+"/v1/route/dark", RouteRequest{N: 1000})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", status, body)
	}
	var res BatchRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Dispatched != 0 || res.Queued == 0 || res.Rejected == 0 ||
		res.Queued+res.Rejected != 1000 {
		t.Fatalf("batch split = %+v, want queued+rejected == 1000 with both nonzero", res)
	}
}
