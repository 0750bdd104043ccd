package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/store"
)

// cycleGolden is one run of the golden scenario: a hash of every
// cycle's GET /v1/placement body, of the final GET /v1/jobs body, and of
// the state directory's bytes at the kill and at the end.
type cycleGolden struct {
	Placements  []string `json:"placements"`
	Jobs        string   `json:"jobs"`
	StateAtKill string   `json:"state_at_kill"`
	StateFinal  string   `json:"state_final"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// stateDirHash hashes every file of a state directory, by name and
// content, in name order.
func stateDirHash(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenDaemon(t *testing.T, dir string) (*Daemon, *SimClock) {
	t.Helper()
	cl, err := cluster.Uniform(4, 3000, 4096)
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
		Costs:         cluster.DefaultCostModel(),
		Clock:         clock,
		History:       64,
		Store:         st,
		SnapshotEvery: 5,
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

func getBody(t *testing.T, d *Daemon, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// runCycleGolden drives a durable SimClock daemon through a load
// schedule, batch jobs (one submitted for later), a drained node, a
// failed node, a load override, and a kill -9 followed by Recover and
// a node arrival, recording the scenario's observable output. read,
// when set, sees every GET /v1/placement body as it is taken, with the
// daemon that served it.
func runCycleGolden(t *testing.T, dir string, read func(*Daemon, []byte)) cycleGolden {
	d, clock := goldenDaemon(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddWebApp(dynplace.WebAppSpec{
		Name: "shop", ArrivalRate: 20, DemandPerRequest: 50,
		GoalResponseTime: 0.25, MemoryMB: 800,
		LoadSchedule: []dynplace.LoadPhase{{Start: 120, ArrivalRate: 40}, {Start: 300, ArrivalRate: 15}},
	}, false))
	must(d.AddWebApp(dynplace.WebAppSpec{
		Name: "api", ArrivalRate: 8, DemandPerRequest: 40,
		GoalResponseTime: 0.3, MemoryMB: 600,
	}, false))
	for _, j := range []dynplace.JobSpec{
		{Name: "etl", WorkMcycles: 600000, MaxSpeedMHz: 3000, MemoryMB: 1000, Deadline: 1500},
		{Name: "report", WorkMcycles: 300000, MaxSpeedMHz: 2500, MemoryMB: 800, Deadline: 900},
		{Name: "late", Submit: 200, WorkMcycles: 400000, MaxSpeedMHz: 3000, MemoryMB: 1000, Deadline: 1400},
		{Name: "long", WorkMcycles: 2e6, MaxSpeedMHz: 3000, MemoryMB: 1200, Deadline: 3000},
	} {
		must(d.SubmitJob(j, false))
	}
	must(d.Start())

	var g cycleGolden
	readPlacement := func(d *Daemon) {
		body := getBody(t, d, "/v1/placement")
		if read != nil {
			read(d, body)
		}
		g.Placements = append(g.Placements, sha(body))
	}
	step := func(d *Daemon, clock *SimClock) {
		clock.Advance(60)
		readPlacement(d)
	}
	for i := 0; i < 8; i++ {
		switch i {
		case 3:
			must(d.DrainNode("node-0"))
		case 5:
			must(d.FailNode("node-2"))
			must(d.SetArrivalRate("api", 16))
		}
		step(d, clock)
	}
	d.Stop() // kill: only the fsync'd journal survives
	g.StateAtKill = stateDirHash(t, dir)

	d2, clock2 := goldenDaemon(t, dir)
	readPlacement(d2)
	must(d2.Start())
	for i := 0; i < 10; i++ {
		if i == 2 {
			if _, err := d2.AddNode("spare", 3000, 4096); err != nil {
				t.Fatal(err)
			}
		}
		step(d2, clock2)
	}
	g.Jobs = sha(getBody(t, d2, "/v1/jobs"))
	d2.Stop()
	g.StateFinal = stateDirHash(t, dir)
	return g
}

// TestDaemonCycleGolden pins the live daemon's cycle output across a
// kill and recovery: placement bodies, job results and the journal's
// bytes. To re-record (only from a tree whose output is the reference):
// delete the file and run the test once; it writes the file and fails.
func TestDaemonCycleGolden(t *testing.T) {
	got := runCycleGolden(t, t.TempDir(), nil)
	path := filepath.Join("testdata", "cycle_golden.json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this tree; review and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want cycleGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%d placement bodies, golden has %d", len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		if got.Placements[i] != want.Placements[i] {
			t.Errorf("placement body %d differs from the golden", i)
		}
	}
	if got.Jobs != want.Jobs {
		t.Error("GET /v1/jobs body differs from the golden")
	}
	if got.StateAtKill != want.StateAtKill {
		t.Error("state directory at the kill differs from the golden")
	}
	if got.StateFinal != want.StateFinal {
		t.Error("final state directory differs from the golden")
	}
}
