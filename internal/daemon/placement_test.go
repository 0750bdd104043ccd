package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/store"
)

// journaledPlacement returns the placement of the newest cycle a state
// directory holds: the last cycle record in the WAL, or the snapshot's
// when a snapshot has rotated the WAL since. It opens a copy, so the
// daemon's own store is left alone.
func journaledPlacement(t *testing.T, dir string) []byte {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	state, recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Op == store.OpCycle {
			return recs[i].Cycle.Placement.Bytes()
		}
	}
	if state == nil || state.Placement.Bytes() == nil {
		t.Fatal("no cycle journaled")
	}
	return state.Placement.Bytes()
}

// TestPlacementBodyIsTheJournaledBytes holds the one-encoding contract
// through the golden scenario (drain, fail, load override, kill -9,
// Recover, node arrival): every GET /v1/placement body is the compact
// encoding of Placement() and the placement bytes of the newest
// journaled cycle, and right after Recover, before any new cycle, it
// is the body last served before the kill.
func TestPlacementBodyIsTheJournaledBytes(t *testing.T) {
	dir := t.TempDir()
	var last []byte
	var served *Daemon
	runCycleGolden(t, dir, func(d *Daemon, body []byte) {
		t.Helper()
		want, err := json.Marshal(d.Placement())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("cycle %d: body is not the compact encoding of Placement()", d.Placement().Cycle)
		}
		if j := journaledPlacement(t, dir); !bytes.Equal(body, append(j, '\n')) {
			t.Fatalf("cycle %d: body differs from the journaled placement (%d vs %d bytes)",
				d.Placement().Cycle, len(body), len(j)+1)
		}
		if served != nil && d != served && !bytes.Equal(body, last) {
			t.Fatalf("first body after Recover differs from the last one before the kill")
		}
		last, served = body, d
	})
}

// TestWriteJSONRejectsUnencodable: a value encoding/json refuses is
// answered 500 with the internal envelope and logged, never 200 with a
// truncated body, on /v1/placement as on any other endpoint; the cycle
// record that cannot carry such a placement is journaled without it,
// and logged.
func TestWriteJSONRejectsUnencodable(t *testing.T) {
	cl, err := cluster.Uniform(2, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	var mu sync.Mutex
	d, err := New(Config{
		Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: NewSimClock(), Store: st,
		Warnf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	oneLogged := func(what string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(logged) != 1 {
			t.Fatalf("%s: %d lines logged, want 1: %q", what, len(logged), logged)
		}
		logged = nil
	}
	check := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500: %s", what, rec.Code, rec.Body.Bytes())
		}
		if got := decodeErrorEnvelope(t, rec.Body.Bytes()).Code; got != "internal" {
			t.Fatalf("%s: envelope code %q, want internal", what, got)
		}
		oneLogged(what)
	}

	rec := httptest.NewRecorder()
	d.writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	check("writeJSON(NaN)", rec)

	d.placement.Store(&published{snap: &PlacementSnapshot{OmegaGMHz: math.Inf(1)}})
	rec = httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/placement", nil))
	check("GET /v1/placement", rec)

	d.mu.Lock()
	d.journalCycleLocked(CycleSnapshot{Cycle: 1, Time: 0}, nil, nil)
	d.mu.Unlock()
	oneLogged("journal")
	if raw := journaledPlacement(t, dir); len(raw) != 0 {
		t.Fatalf("journaled placement %.80q, want none", raw)
	}
}

// discard is a ResponseWriter that keeps nothing, so an allocation
// count measures the handler rather than a recorder's buffer growth.
type discard struct{ h http.Header }

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { return len(b), nil }
func (w *discard) WriteHeader(int)             {}

// placementDaemon builds a daemon on nodes nodes that has run one cycle
// of loadWorkload's apps and jobs.
func placementDaemon(tb testing.TB, nodes int) *Daemon {
	tb.Helper()
	cl, err := cluster.Uniform(nodes, 3000, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: clock})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Stop)
	loadWorkload(tb, d)
	if err := d.Start(); err != nil {
		tb.Fatal(err)
	}
	clock.Advance(0)
	if d.Placement().Cycle != 1 {
		tb.Fatalf("cycle %d published, want 1", d.Placement().Cycle)
	}
	return d
}

// TestPlacementReadsDoNotEncode: a read serves the encoding made once
// per published snapshot, so what one GET /v1/placement allocates does
// not grow with the cluster.
func TestPlacementReadsDoNotEncode(t *testing.T) {
	// The instrumentation's status recorder and the Content-Type
	// header value.
	const pinned = 2
	var counts []float64
	for _, nodes := range []int{20, 2000} {
		h := placementDaemon(t, nodes).Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/placement", nil)
		w := &discard{h: http.Header{}}
		counts = append(counts, testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }))
	}
	if counts[0] != counts[1] {
		t.Fatalf("a read allocates %v objects at 20 nodes and %v at 2000", counts[0], counts[1])
	}
	if counts[0] > pinned {
		t.Fatalf("a read allocates %v objects, pinned at most %d", counts[0], pinned)
	}
}

// BenchmarkPlacementRead is one GET /v1/placement through Handler() on
// a 2 000-node placement; with -benchmem, bytes per op is what a read
// costs beyond writing the published bytes.
func BenchmarkPlacementRead(b *testing.B) {
	h := placementDaemon(b, 2000).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/placement", nil)
	w := &discard{h: http.Header{}}
	h.ServeHTTP(w, req) // the first read after a cycle with no store encodes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// TestUnencodablePlacementJournaledWithout: a cycle whose placement
// encoding/json refuses (NaN) is still journaled, without a placement,
// and logged once. Recovery then republishes the newest placement that
// was journaled and still counts the cycle.
func TestUnencodablePlacementJournaledWithout(t *testing.T) {
	dir := t.TempDir()
	d, _ := newDurableDaemon(t, dir)
	var warned []string
	d.cfg.Warnf = func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) }
	d.mu.Lock()
	d.placement.Store(&published{snap: &PlacementSnapshot{Cycle: 1, Web: []WebPlacementView{}, Jobs: []JobPlacementView{}}})
	d.journalCycleLocked(CycleSnapshot{Cycle: 1, Time: 60}, nil, nil)
	d.placement.Store(&published{snap: &PlacementSnapshot{Cycle: 2, OmegaGMHz: math.NaN()}})
	d.journalCycleLocked(CycleSnapshot{Cycle: 2, Time: 120}, nil, nil)
	d.mu.Unlock()
	if len(warned) != 1 {
		t.Fatalf("%d lines logged, want 1: %q", len(warned), warned)
	}
	if raw := journaledPlacement(t, dir); len(raw) != 0 {
		t.Fatalf("cycle 2 journaled placement %.80q, want none", raw)
	}

	d2, _ := newDurableDaemon(t, dir)
	if got := d2.Placement().Cycle; got != 1 {
		t.Fatalf("recovered placement of cycle %d, want cycle 1's", got)
	}
	if got := d2.cycles.Load(); got != 2 {
		t.Fatalf("recovered %d cycles, want 2", got)
	}
}
