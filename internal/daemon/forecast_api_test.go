package daemon

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/forecast"
	"dynplace/internal/store"
)

// newForecastDaemon is newTestDaemon with forecast-driven control on,
// using a compressed season so estimator state moves within a test.
func newForecastDaemon(t *testing.T) (*Daemon, *SimClock, *httptest.Server) {
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
		Dynamic: control.DynamicConfig{
			Forecast: &forecast.Config{SeasonSeconds: 3600, Slots: 12},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(d.Stop)
	return d, clock, srv
}

func addShop(t *testing.T, srv *httptest.Server) {
	t.Helper()
	status, body := do(t, http.MethodPost, srv.URL+"/v1/apps", AddAppRequest{
		App: dynplace.WebAppSpec{
			Name: "shop", ArrivalRate: 5, DemandPerRequest: 50,
			BaseLatency: 0.02, GoalResponseTime: 0.2, MemoryMB: 1000,
		},
	})
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/apps: status %d: %s", status, body)
	}
}

// TestForecastEndpoint drives the estimator through load reports and
// cycles, then checks GET /v1/apps/{name}/forecast reflects them.
func TestForecastEndpoint(t *testing.T) {
	d, clock, srv := newForecastDaemon(t)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	addShop(t, srv)

	// A few cycles with rising load: each POST /load feeds the
	// estimator, each cycle scores the previous prediction.
	for c := 1; c <= 5; c++ {
		clock.Advance(60)
		status, body := do(t, http.MethodPost, srv.URL+"/v1/apps/shop/load",
			SetLoadRequest{ArrivalRate: 5 + float64(c)})
		if status != http.StatusOK {
			t.Fatalf("set load: status %d: %s", status, body)
		}
	}
	clock.Advance(60)

	status, body := do(t, http.MethodGet, srv.URL+"/v1/apps/shop/forecast", nil)
	if status != http.StatusOK {
		t.Fatalf("forecast: status %d: %s", status, body)
	}
	var view ForecastView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("forecast body: %v: %s", err, body)
	}
	if view.App != "shop" || view.ObservedRate != 10 {
		t.Errorf("view = %+v, want app shop at observed rate 10", view)
	}
	if !view.PredictionValid || view.PredictedRate <= 0 {
		t.Errorf("prediction invalid or nonpositive: %+v", view)
	}
	if view.HorizonSeconds != 60 {
		t.Errorf("horizon = %g, want the 60s cycle", view.HorizonSeconds)
	}
	if view.Config.SeasonSeconds != 3600 || view.Config.Slots != 12 {
		t.Errorf("config = %+v, want the daemon's forecast config", view.Config)
	}
	if view.Stats.Observations == 0 {
		t.Errorf("stats carry no observations: %+v", view.Stats)
	}
	if view.Stats.Scored == 0 {
		t.Errorf("no predictions scored after 6 cycles: %+v", view.Stats)
	}

	// The forecaster's gauges are exposed once predictions exist.
	status, prom := do(t, http.MethodGet, srv.URL+"/v1/metrics/prom", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, series := range []string{
		"dynplace_forecast_abs_error", "dynplace_forecast_mape",
		"dynplace_forecast_predicted_rate",
	} {
		if !strings.Contains(string(prom), series+`{app="shop"}`) {
			t.Errorf("metrics exposition missing %s{app=\"shop\"}", series)
		}
	}
}

// TestForecastEndpointErrors pins the error envelope for the forecast
// read surface and the hardened load validation.
func TestForecastEndpointErrors(t *testing.T) {
	reactive, _, reactiveSrv := newTestDaemon(t)
	if err := reactive.Start(); err != nil {
		t.Fatal(err)
	}
	addShop(t, reactiveSrv)

	fc, _, fcSrv := newForecastDaemon(t)
	if err := fc.Start(); err != nil {
		t.Fatal(err)
	}
	addShop(t, fcSrv)

	cases := []struct {
		name       string
		srv        *httptest.Server
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"forecast unknown app", fcSrv, http.MethodGet,
			"/v1/apps/ghost/forecast", nil,
			http.StatusNotFound, "not_found"},
		{"forecast while reactive", reactiveSrv, http.MethodGet,
			"/v1/apps/shop/forecast", nil,
			http.StatusConflict, "conflict"},
		{"load NaN", fcSrv, http.MethodPost, "/v1/apps/shop/load",
			map[string]string{"arrivalRate": "NaN"},
			http.StatusBadRequest, "bad_request"},
		{"load negative", fcSrv, http.MethodPost, "/v1/apps/shop/load",
			SetLoadRequest{ArrivalRate: -1},
			http.StatusBadRequest, "bad_request"},
		{"load unknown app", fcSrv, http.MethodPost, "/v1/apps/ghost/load",
			SetLoadRequest{ArrivalRate: 1},
			http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, tc.method, tc.srv.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", status, tc.wantStatus, body)
			}
			if det := decodeErrorEnvelope(t, body); det.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (message %q)", det.Code, tc.wantCode, det.Message)
			}
		})
	}

	// JSON cannot carry NaN/Inf literals, so the daemon method is the
	// enforcement point for non-finite rates.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := fc.SetArrivalRate("shop", bad); err == nil {
			t.Errorf("SetArrivalRate accepted %v", bad)
		}
	}
}

// TestForecastSurvivesRecovery: OpSetLoad records journal their clock
// reading, so WAL replay re-feeds the estimator at the original virtual
// instants and a recovered daemon predicts again without waiting to
// relearn demand.
func TestForecastSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	build := func() (*Daemon, *SimClock) {
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
			SnapshotEvery: -1,
			Dynamic: control.DynamicConfig{
				Forecast: &forecast.Config{SeasonSeconds: 3600, Slots: 12},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		if err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		return d, clock
	}

	d, clock := build()
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "shop", ArrivalRate: 5, DemandPerRequest: 50,
		BaseLatency: 0.02, GoalResponseTime: 0.2, MemoryMB: 1000,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 5; c++ {
		clock.Advance(60)
		if err := d.SetArrivalRate("shop", 5+float64(c)); err != nil {
			t.Fatal(err)
		}
	}
	d.Stop() // kill: only the fsync'd WAL survives

	d2, _ := build()
	view, err := d2.Forecast("shop")
	if err != nil {
		t.Fatalf("forecast after recovery: %v", err)
	}
	if view.ObservedRate != 10 {
		t.Errorf("observed rate = %g, want the last journaled 10", view.ObservedRate)
	}
	if view.Stats.Observations < 5 {
		t.Errorf("estimator rebuilt with %d observations, want ≥ 5 (one per journaled load)",
			view.Stats.Observations)
	}
	if !view.PredictionValid {
		t.Error("recovered estimator cannot predict")
	}
}
