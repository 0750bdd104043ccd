package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/store"
)

// writeStateDir writes a state directory through the store API alone:
// st as the snapshot, then each of cycles as a cycle record at its
// journaled time. It returns the records' sequence numbers.
func writeStateDir(tb testing.TB, dir string, st *store.State, cycles []*store.CycleRecord) []uint64 {
	tb.Helper()
	s, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteSnapshot(st); err != nil {
		tb.Fatal(err)
	}
	seqs := make([]uint64, len(cycles))
	for i, cr := range cycles {
		if seqs[i], err = s.Append(store.Record{Time: cr.Time, Op: store.OpCycle, Cycle: cr}); err != nil {
			tb.Fatal(err)
		}
	}
	return seqs
}

// uniformInventory exports an inventory of n identical nodes.
func uniformInventory(tb testing.TB, n int) cluster.InventorySnapshot {
	tb.Helper()
	cl, err := cluster.Uniform(n, 3000, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	return cluster.NewInventory(cl).Export()
}

func mustPlacement(tb testing.TB, v any) store.Placement {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return store.PlacementOf(b)
}

// TestRecoverDecodesOnlyNewestPlacement: Recover decodes and republishes
// only the newest journaled placement. The superseded ones are valid
// JSON but no PlacementSnapshot, so a recovery that decoded any of them
// would fail; a malformed newest placement fails Recover, naming where
// it was journaled; and a newest cycle journaled without a placement
// falls back to the one before it.
func TestRecoverDecodesOnlyNewestPlacement(t *testing.T) {
	notASnapshot := mustPlacement(t, []int{1})
	valid := func(cycle int64) store.Placement {
		return mustPlacement(t, &PlacementSnapshot{
			Cycle: cycle, Time: float64(60 * cycle),
			Web: []WebPlacementView{}, Jobs: []JobPlacementView{}, Nodes: []NodeView{},
			Err: "no feasible placement", Infeasible: true, InfeasibleStreak: int(cycle),
		})
	}
	// recoverFrom journals a snapshot with placement snap and one
	// job-free cycle record per entry of cycles (cycles 1, 2, …), then
	// recovers a fresh daemon from it.
	recoverFrom := func(t *testing.T, snap store.Placement, cycles ...store.Placement) (*Daemon, []uint64, error) {
		t.Helper()
		dir := t.TempDir()
		st := &store.State{Inventory: uniformInventory(t, 3), Placement: snap}
		var crs []*store.CycleRecord
		for i, p := range cycles {
			crs = append(crs, &store.CycleRecord{Cycle: int64(i + 1), Time: float64(60 * (i + 1)), Placement: p})
		}
		seqs := writeStateDir(t, dir, st, crs)
		d, _ := newDurableDaemonRaw(t, dir)
		return d, seqs, d.Recover()
	}
	served := func(t *testing.T, d *Daemon) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/placement", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/placement = %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}

	t.Run("superseded placements are not decoded", func(t *testing.T) {
		newest := valid(3)
		d, _, err := recoverFrom(t, notASnapshot, notASnapshot, notASnapshot, newest)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := served(t, d), append(newest.Bytes(), '\n'); string(got) != string(want) {
			t.Fatalf("GET /v1/placement = %s, want the newest bytes %s", got, want)
		}
		if d.infeasibleStreak != 3 || d.Health().Status != "degraded" {
			t.Fatalf("infeasible streak %d, health %q: not restored from the newest placement",
				d.infeasibleStreak, d.Health().Status)
		}
		if got := d.cycles.Load(); got != 3 {
			t.Fatalf("recovered %d cycles, want 3", got)
		}
	})

	// failsNaming checks that Recover failed with ErrDaemon and that
	// the error names where the placement was journaled.
	failsNaming := func(t *testing.T, err error, where string) {
		t.Helper()
		if !errors.Is(err, ErrDaemon) || !strings.HasPrefix(err.Error(), ErrDaemon.Error()+": "+where+": ") {
			t.Fatalf("Recover = %v, want ErrDaemon naming %s", err, where)
		}
	}

	t.Run("malformed newest record fails", func(t *testing.T) {
		_, seqs, err := recoverFrom(t, valid(0), valid(1), notASnapshot)
		failsNaming(t, err, fmt.Sprintf("replay seq %d (cycle)", seqs[1]))
	})

	t.Run("malformed newest snapshot fails", func(t *testing.T) {
		_, _, err := recoverFrom(t, notASnapshot, store.Placement{})
		failsNaming(t, err, "snapshot")
	})

	t.Run("newest cycle without a placement", func(t *testing.T) {
		previous := valid(1)
		d, _, err := recoverFrom(t, notASnapshot, previous, store.Placement{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := served(t, d), append(previous.Bytes(), '\n'); string(got) != string(want) {
			t.Fatalf("GET /v1/placement = %s, want the previous record's bytes %s", got, want)
		}
		if got := d.cycles.Load(); got != 2 {
			t.Fatalf("recovered %d cycles, want 2", got)
		}
	})
}

// recoverBenchDir writes the state directory BenchmarkRecover recovers:
// a snapshot of a 10 000-node inventory with 16 web apps of 25
// instances each, then 24 cycle records, each with its own 10 000-node
// placement of about 1 MB. No solver runs: the placements are built
// directly.
func recoverBenchDir(b *testing.B, dir string) {
	const nodes, apps, instances, cycles = 10000, 16, 25, 24
	st := &store.State{Inventory: uniformInventory(b, nodes)}
	var web []store.WebCycleState
	for a := 0; a < apps; a++ {
		spec := dynplace.WebAppSpec{
			Name: fmt.Sprintf("web-%d", a), ArrivalRate: 100 + float64(a),
			DemandPerRequest: 50, GoalResponseTime: 0.25, MemoryMB: 800,
		}
		w := store.WebCycleState{Name: spec.Name, ArrivalRate: spec.ArrivalRate}
		for k := 0; k < instances; k++ {
			w.Nodes = append(w.Nodes, a*instances+k)
		}
		st.Apps = append(st.Apps, store.AppState{Spec: spec, Placement: w.Nodes})
		web = append(web, w)
	}
	placement := func(cycle int64) store.Placement {
		snap := &PlacementSnapshot{Cycle: cycle, Time: float64(60 * cycle), Jobs: []JobPlacementView{}, InventoryVersion: 1}
		for a, w := range web {
			v := WebPlacementView{Name: w.Name, ArrivalRate: w.ArrivalRate, AllocMHz: 2000 * instances, Utility: 0.4 + float64(a)/100}
			for _, id := range w.Nodes {
				v.Instances = append(v.Instances, InstanceView{Node: fmt.Sprintf("node-%d", id), PowerMHz: 2000})
			}
			snap.Web = append(snap.Web, v)
		}
		for i := 0; i < nodes; i++ {
			nv := NodeView{Name: fmt.Sprintf("node-%d", i), State: cluster.NodeActive.String(), CPUMHz: 3000, MemMB: 4096}
			if i < apps*instances {
				nv.WebInstances = 1
			}
			snap.Nodes = append(snap.Nodes, nv)
		}
		return mustPlacement(b, snap)
	}
	st.Placement = placement(0)
	var crs []*store.CycleRecord
	for c := int64(1); c <= cycles; c++ {
		crs = append(crs, &store.CycleRecord{Cycle: c, Time: float64(60 * c), Web: web, Placement: placement(c)})
	}
	writeStateDir(b, dir, st, crs)
}

// BenchmarkRecover is one recovery of recoverBenchDir's state directory,
// as a restarted dynplaced runs it: store.Open reads the snapshot and
// the WAL, then Recover replays them and writes the boot compaction. It
// runs on a fresh copy of the directory each iteration, made outside
// the timer, because recovery compacts the directory it runs on. With
// -benchmem, allocs/op counts the objects that decoding placements
// allocates, about 20 000 per 10 000-node placement decoded.
func BenchmarkRecover(b *testing.B) {
	src := b.TempDir()
	recoverBenchDir(b, src)
	files, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Uniform(1, 3000, 4096)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "state")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(filepath.Join(src, f.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), raw, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		d, err := New(Config{Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: NewSimClock(), Store: s, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Recover(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := d.Placement().Cycle; got != 24 {
			b.Fatalf("recovered the placement of cycle %d, want 24", got)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
