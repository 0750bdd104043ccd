package daemon

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplace"
	"dynplace/internal/store"
)

// TestLoadScheduleSameOnBothHosts drives the simulated System and the
// daemon with the same web-app specs: they reject the same load
// schedules (ErrBadSpec; bad_spec over HTTP), and a valid schedule
// yields the same per-cycle arrival rates and utilities on both.
func TestLoadScheduleSameOnBothHosts(t *testing.T) {
	cases := []struct {
		name     string
		schedule []dynplace.LoadPhase
		valid    bool
	}{
		{"ascending", []dynplace.LoadPhase{{Start: 120, ArrivalRate: 40}, {Start: 300, ArrivalRate: 10}}, true},
		{"equal starts, last wins", []dynplace.LoadPhase{{Start: 120, ArrivalRate: 40}, {Start: 120, ArrivalRate: 25}}, true},
		{"ramp to idle", []dynplace.LoadPhase{{Start: 180, ArrivalRate: 0}}, true},
		{"out of order", []dynplace.LoadPhase{{Start: 100, ArrivalRate: 5}, {Start: 50, ArrivalRate: 3}}, false},
		{"negative rate", []dynplace.LoadPhase{{Start: 60, ArrivalRate: -1}}, false},
		{"NaN rate", []dynplace.LoadPhase{{Start: 60, ArrivalRate: math.NaN()}}, false},
		{"infinite rate", []dynplace.LoadPhase{{Start: 60, ArrivalRate: math.Inf(1)}}, false},
		{"NaN start", []dynplace.LoadPhase{{Start: math.NaN(), ArrivalRate: 4}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := dynplace.WebAppSpec{
				Name: "web", ArrivalRate: 8, DemandPerRequest: 40,
				GoalResponseTime: 0.3, MemoryMB: 600, LoadSchedule: tc.schedule,
			}
			sys, err := dynplace.NewSystem(dynplace.WithUniformCluster(2, 3000, 4096),
				dynplace.WithControlCycle(60), dynplace.WithDynamicPlacement(),
				dynplace.WithFreePlacementActions())
			if err != nil {
				t.Fatal(err)
			}
			sysErr := sys.AddWebApp(spec)
			d, clock, _ := newTestDaemon(t)
			daemonErr := d.AddWebApp(spec, false)
			if !tc.valid {
				if !errors.Is(sysErr, dynplace.ErrBadSpec) || !errors.Is(daemonErr, dynplace.ErrBadSpec) {
					t.Fatalf("System err %v, daemon err %v; want ErrBadSpec from both", sysErr, daemonErr)
				}
				if code := postAppCode(t, d, spec); code != "" && code != "bad_spec" {
					t.Fatalf("POST /v1/apps code %q, want bad_spec", code)
				}
				return
			}
			if sysErr != nil || daemonErr != nil {
				t.Fatalf("valid schedule rejected: System %v, daemon %v", sysErr, daemonErr)
			}
			if err := sys.Run(600); err != nil {
				t.Fatal(err)
			}
			simUtil := map[float64]float64{}
			for _, pt := range sys.WebUtilitySeries("web") {
				simUtil[pt.Time] = pt.Value
			}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			for now := 60.0; now <= 600; now += 60 {
				clock.Advance(60)
				snap := d.Placement()
				want := spec.ArrivalRate
				for _, ph := range tc.schedule {
					if ph.Start <= snap.Time {
						want = ph.ArrivalRate
					}
				}
				if got := snap.Web[0].ArrivalRate; got != want {
					t.Fatalf("t=%v: daemon rate %v, want %v", snap.Time, got, want)
				}
				if u, ok := simUtil[snap.Time]; !ok || u != snap.Web[0].Utility {
					t.Fatalf("t=%v: daemon utility %v, System %v (sampled %v)", snap.Time, snap.Web[0].Utility, u, ok)
				}
			}
		})
	}
}

// TestOldJournalScheduleReplays: a journal written before schedules
// were validated may hold phases out of start order. Recovery replays
// such a schedule rather than failing, and each phase still takes effect
// once at the first cycle after its start.
func TestOldJournalScheduleReplays(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(store.Record{Op: store.OpAddApp, App: &store.AppState{
		Spec: dynplace.WebAppSpec{
			Name: "web", ArrivalRate: 8, DemandPerRequest: 40,
			GoalResponseTime: 0.3, MemoryMB: 600,
		},
		Schedule: []dynplace.LoadPhase{{Start: 100, ArrivalRate: 5}, {Start: 50, ArrivalRate: 3}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	d, clock := newDurableDaemon(t, dir)
	if got := len(d.planner.LoadSchedule("web")); got != 2 {
		t.Fatalf("recovered %d pending phases, want 2", got)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []float64{3, 5} {
		clock.Advance(60)
		if got := d.Placement().Web[0].ArrivalRate; got != want {
			t.Fatalf("t=%v: rate %v, want %v", d.Placement().Time, got, want)
		}
	}
}

// postAppCode posts spec to POST /v1/apps and returns the error code,
// or "" when the spec cannot be encoded as JSON (NaN, ±Inf).
func postAppCode(t *testing.T, d *Daemon, spec dynplace.WebAppSpec) string {
	t.Helper()
	body, err := json.Marshal(AddAppRequest{App: spec})
	if err != nil {
		return ""
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/apps", strings.NewReader(string(body))))
	var resp ErrorResponse
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		t.Fatalf("POST /v1/apps: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return resp.Error.Code
}
