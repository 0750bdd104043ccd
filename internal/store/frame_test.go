package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/scheduler"
)

// The ref types are the reference encoding, the one the WAL format is
// defined by: a Record, CycleRecord and State whose placement is a
// json.RawMessage. The outer field hides the embedded one of the same
// JSON name and sorts after every embedded field, so json.Marshal of a
// ref encodes the record in field order.
type refRecord struct {
	*Record
	Cycle *refCycle `json:"cycle,omitempty"`
}

type refCycle struct {
	*CycleRecord
	Placement json.RawMessage `json:"placement,omitempty"`
}

type refState struct {
	*State
	Placement json.RawMessage `json:"placement,omitempty"`
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func refMarshalRecord(t *testing.T, rec *Record) []byte {
	t.Helper()
	ref := refRecord{Record: rec}
	if rec.Cycle != nil {
		ref.Cycle = &refCycle{CycleRecord: rec.Cycle, Placement: rec.Cycle.Placement.Bytes()}
	}
	return mustMarshal(t, &ref)
}

func refMarshalState(t *testing.T, st *State) []byte {
	t.Helper()
	return mustMarshal(t, &refState{State: st, Placement: st.Placement.Bytes()})
}

// awkward holds the characters json.Marshal escapes (<, >, & as
// \u003c..., U+2028 and U+2029 as \u2028...) beside non-ASCII text it
// writes as is.
const awkward = "a<b>&c\u2028d\u2029-zoë-東京-\"q\"\\"

func mustPlacement(tb testing.TB, v any) Placement {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return PlacementOf(b)
}

// frameCorpus returns a record for every Op, cycle records with and
// without a placement and with Err set, with awkward names throughout.
func frameCorpus(tb testing.TB) []Record {
	tb.Helper()
	placement := mustPlacement(tb, map[string]any{
		"cycle": 7,
		"web":   []map[string]any{{"name": awkward, "nodes": []string{"n<0>", "n&1"}}},
		"jobs":  []any{},
	})
	cycle := func(p Placement, err string) *CycleRecord {
		return &CycleRecord{
			Cycle: 7, Time: 420.5, Err: err, Infeasible: err != "",
			Web:       []WebCycleState{{Name: awkward, ArrivalRate: 12.25, Nodes: []int{0, 3}}, {Name: "idle"}},
			Jobs:      []NamedJobState{{Name: "job<1>", JobState: scheduler.JobState{Status: "running", Done: 1e3, Node: 3, LastNode: -1, LastAdvance: 420.5}}},
			Completed: []dynplace.JobResult{{Name: "zoë&", Completed: true, CompletedAt: 400, MetGoal: true, Utility: 0.5}},
			Actions:   map[string]int{"start": 2, "migrate<": 1},
			Placement: p,
		}
	}
	return []Record{
		{Time: 1, Op: OpAddApp, App: &AppState{
			Spec: dynplace.WebAppSpec{
				Name: awkward, ArrivalRate: 10, DemandPerRequest: 50, GoalResponseTime: 0.25, MemoryMB: 1200,
				AntiCollocate: []string{"x&y"},
			},
			Schedule:  []dynplace.LoadPhase{{Start: 600, ArrivalRate: 20}},
			Placement: []int{1, 2},
		}},
		{Time: 2, Op: OpRemoveApp, Name: awkward},
		{Time: 3, Op: OpSetLoad, Name: "東京", Rate: 123.4},
		{Time: 4, Op: OpSubmitJob, Job: &dynplace.JobSpec{
			Name: "job<1>", WorkMcycles: 2e5, MaxSpeedMHz: 2500, MemoryMB: 800, Deadline: 3600,
			Stages: []dynplace.Stage{{WorkMcycles: 10, MaxSpeedMHz: 1000, MemoryMB: 10}},
		}},
		{Time: 5, Op: OpAddNode, InventoryVersion: 3,
			Node: &cluster.InventoryNodeSnapshot{ID: 9, Name: "rack<1>&", CPUMHz: 3000, MemMB: 4096, State: "active"}},
		{Time: 6, Op: OpDrainNode, Name: "rack<1>&", InventoryVersion: 4},
		{Time: 7, Op: OpFailNode, Name: "rack<1>&", InventoryVersion: 5},
		{Time: 8, Op: OpRemoveNode, Name: "rack<1>&", InventoryVersion: 6},
		{Time: 9, Op: OpCycle, Cycle: cycle(placement, "")},
		{Time: 10, Op: OpCycle, Cycle: cycle(Placement{}, "")},
		{Time: 11, Op: OpCycle, Cycle: cycle(placement, "no feasible placement for \"web<1>\"")},
		{Time: 12, Op: OpCycle, Cycle: &CycleRecord{Cycle: 8}},
	}
}

// corpusState returns a State with every field set and placement p.
func corpusState(tb testing.TB, p Placement) *State {
	tb.Helper()
	recs := frameCorpus(tb)
	return &State{
		Time: 720, Cycles: 12, Restarts: 1, InfeasibleCycles: 2,
		Apps:      []AppState{*recs[0].App},
		Jobs:      []JobRecord{{Spec: *recs[3].Job, Runtime: scheduler.JobState{Status: "queued", Node: -1, LastNode: -1}}},
		JobNames:  []string{"job<1>", "zoë&"},
		Completed: recs[8].Cycle.Completed,
		Inventory: cluster.InventorySnapshot{Version: 6, NextID: 10, Nodes: []cluster.InventoryNodeSnapshot{
			{ID: 0, Name: awkward, CPUMHz: 3000, MemMB: 4096, State: "draining"},
		}},
		Actions:   map[string]int{"suspend": 4},
		Placement: p,
	}
}

// framePayloads returns the payloads of the frames in data from off on.
func framePayloads(t *testing.T, data []byte, off int) [][]byte {
	t.Helper()
	var out [][]byte
	for off < len(data) {
		payload, next, err := readFrame(data, off)
		if err != nil || payload == nil {
			t.Fatalf("frame at offset %d: payload %v, err %v", off, payload != nil, err)
		}
		out = append(out, payload)
		off = next
	}
	return out
}

// TestFramedPayloadIsJSONMarshal: Append and WriteSnapshot write,
// byte for byte, the payload json.Marshal gives for the same record
// with the placement as a json.RawMessage, so framing around the
// placement bytes leaves the on-disk format unchanged.
func TestFramedPayloadIsJSONMarshal(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	corpus := frameCorpus(t)
	for _, rec := range corpus {
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	payloads := framePayloads(t, data, len(walMagic))
	if len(payloads) != len(corpus) {
		t.Fatalf("%d frames for %d records", len(payloads), len(corpus))
	}
	for i, rec := range corpus {
		rec.V, rec.Seq = SchemaVersion, uint64(i+1)
		if want := refMarshalRecord(t, &rec); !bytes.Equal(payloads[i], want) {
			t.Errorf("%s record %d:\n got %s\nwant %s", rec.Op, i, payloads[i], want)
		}
		if rec.Cycle != nil && rec.Cycle.Placement.Bytes() != nil {
			// The Record type itself, no mirror: its fields keep their
			// declared order, and Placement marshals like a RawMessage.
			if direct := mustMarshal(t, &rec); !bytes.Equal(payloads[i], direct) {
				t.Errorf("record %d is not json.Marshal of the record:\n got %s\nwant %s", i, payloads[i], direct)
			}
		}
	}
	if !strings.Contains(string(payloads[8]), `"placement":{`) || strings.Contains(string(payloads[9]), "placement") {
		t.Fatal("the corpus does not cover a cycle record with and without a placement")
	}

	for _, p := range []Placement{corpus[8].Cycle.Placement, {}} {
		st := corpusState(t, p)
		if err := s.WriteSnapshot(st); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		payloads := framePayloads(t, data, len(snapMagic))
		if want := refMarshalState(t, st); len(payloads) != 1 || !bytes.Equal(payloads[0], want) {
			t.Errorf("snapshot with %d placement bytes:\n got %q\nwant %s", len(p.Bytes()), payloads, want)
		}
		if direct := mustMarshal(t, st); p.Bytes() != nil && !bytes.Equal(payloads[0], direct) {
			t.Errorf("snapshot is not json.Marshal of the State:\n got %s\nwant %s", payloads[0], direct)
		}
	}
}

// TestPlacementRoundTrip: a placement comes back from the WAL and the
// snapshot with the bytes it was written with, and a record or state
// without one comes back without one.
func TestPlacementRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	corpus := frameCorpus(t)
	if err := s.WriteSnapshot(corpusState(t, corpus[8].Cycle.Placement)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range corpus {
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st, recs, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if want := corpus[8].Cycle.Placement.Bytes(); !bytes.Equal(st.Placement.Bytes(), want) {
		t.Fatalf("snapshot placement %s, want %s", st.Placement.Bytes(), want)
	}
	for i, rec := range recs {
		if rec.Cycle == nil {
			continue
		}
		if got, want := rec.Cycle.Placement.Bytes(), corpus[i].Cycle.Placement.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("record %d placement %s, want %s", i, got, want)
		}
	}

	// Outside the store's framing the type marshals like a
	// json.RawMessage, and null decodes to no placement.
	for _, p := range []Placement{corpus[8].Cycle.Placement, {}} {
		b, err := json.Marshal(struct{ P Placement }{p})
		if err != nil {
			t.Fatal(err)
		}
		var back struct{ P Placement }
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.P.Bytes(), p.Bytes()) || (back.P.Bytes() == nil) != (p.Bytes() == nil) {
			t.Fatalf("%s decoded to %q, want %q", b, back.P.Bytes(), p.Bytes())
		}
	}
}

// TestZeroPlacementJournaledWithout: a caller whose placement
// json.Marshal refuses has only the zero Placement to journal, and the
// cycle record that would have carried it is journaled without a
// placement field.
func TestZeroPlacementJournaledWithout(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Append(Record{Op: OpCycle, Cycle: &CycleRecord{Cycle: 1, Placement: Placement{}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if got := framePayloads(t, data, len(walMagic)); len(got) != 1 || bytes.Contains(got[0], []byte("placement")) {
		t.Fatalf("journaled %q, want one record without a placement", got)
	}
}

// syntheticPlacement is placement-shaped JSON of about 100 bytes a
// node, the size the daemon publishes: about 1 MB at 10 000 nodes.
func syntheticPlacement(tb testing.TB, nodes int) Placement {
	tb.Helper()
	type instance struct {
		App      string  `json:"app"`
		PowerMHz float64 `json:"powerMHz"`
	}
	type node struct {
		Name      string     `json:"name"`
		State     string     `json:"state"`
		CPUMHz    float64    `json:"cpuMHz"`
		MemMB     float64    `json:"memMB"`
		UsedMB    float64    `json:"usedMB"`
		Instances []instance `json:"instances,omitempty"`
	}
	out := struct {
		Cycle int64  `json:"cycle"`
		Nodes []node `json:"nodes"`
	}{Cycle: 42, Nodes: make([]node, nodes)}
	for i := range out.Nodes {
		out.Nodes[i] = node{Name: fmt.Sprintf("node-%05d", i), State: "active", CPUMHz: 3000, MemMB: 4096, UsedMB: float64(i % 4096)}
		if i%2 == 0 {
			out.Nodes[i].Instances = []instance{{App: fmt.Sprintf("web-%d", i%16), PowerMHz: 1234.5 + float64(i%97)}}
		}
	}
	return mustPlacement(tb, out)
}

// syntheticCycle is a cycle record over nodes nodes shaped like a
// sharded 10 000-node cycle's: 16 web apps on 25 nodes each, 400 live
// jobs, a few completions and the action totals.
func syntheticCycle(tb testing.TB, nodes int) Record {
	tb.Helper()
	cr := &CycleRecord{
		Cycle: 42, Time: 2520, Placement: syntheticPlacement(tb, nodes),
		Actions: map[string]int{"start": 900, "suspend": 40, "resume": 38, "migrate": 12, "web-add": 60, "web-remove": 44},
	}
	for a := 0; a < 16; a++ {
		w := WebCycleState{Name: fmt.Sprintf("web-%d", a), ArrivalRate: 100 + float64(a)}
		for k := 0; k < 25; k++ {
			w.Nodes = append(w.Nodes, (a*625+k*25)%nodes)
		}
		cr.Web = append(cr.Web, w)
	}
	for j := 0; j < 400; j++ {
		cr.Jobs = append(cr.Jobs, NamedJobState{Name: fmt.Sprintf("job-%d", j), JobState: scheduler.JobState{
			Status: "running", Done: float64(j) * 1e3, Node: (j * 7) % nodes, LastNode: -1, SpeedMHz: 2500,
			Started: true, Starts: 1, LastAdvance: 2460,
		}})
	}
	for j := 0; j < 4; j++ {
		cr.Completed = append(cr.Completed, dynplace.JobResult{Name: fmt.Sprintf("done-%d", j), Completed: true, CompletedAt: 2500, MetGoal: true, Utility: 0.4})
	}
	return Record{Time: 2520, Op: OpCycle, Cycle: cr}
}

// rotateEvery bounds the WAL a long append loop leaves on disk; the
// rotation happens outside the measured appends.
const rotateEvery = 16

// TestAppendCycleRecordAllocs pins what one Append of a 10 000-node
// cycle record allocates, fsync included: the objects, and bytes within
// half a frame of the frame itself. Framing the record around its
// placement allocates the head's encoding and one exactly sized frame
// buffer; marshalling the whole record with the placement as a
// json.RawMessage allocated about as many objects but two frames of
// bytes.
func TestAppendCycleRecordAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 1 MB records")
	}
	// Ten runs of AllocsPerRun(10, ...) measured 18 or 19.
	const pinned = 19
	s := openStore(t, t.TempDir())
	rec := syntheticCycle(t, 10000)
	appendRec := func() {
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// The race detector makes sync.Pool drop items at random, so
	// encoding/json's pooled buffers are reallocated at random too.
	if allocs := testing.AllocsPerRun(10, appendRec); allocs > pinned && !raceEnabled() {
		t.Fatalf("an append allocates %v objects, pinned at most %d", allocs, pinned)
	}

	const appends = 4
	var before, after runtime.MemStats
	walBefore := s.walBytes
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		appendRec()
	}
	runtime.ReadMemStats(&after)
	frame := float64(s.walBytes-walBefore) / appends
	if perAppend := float64(after.TotalAlloc-before.TotalAlloc) / appends; perAppend > 1.5*frame {
		t.Fatalf("an append allocates %.0f bytes for a %.0f-byte frame, pinned at most 1.5 frames", perAppend, frame)
	}
}

// BenchmarkAppendCycleRecord is one Append of a 10 000-node cycle
// record with a ~1 MB placement, fsync included; with -benchmem, bytes
// and objects per append. The WAL is rotated outside the timer every
// rotateEvery appends so a long run does not fill the disk.
func BenchmarkAppendCycleRecord(b *testing.B) {
	s := openStore(b, b.TempDir())
	rec := syntheticCycle(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
		if (i+1)%rotateEvery == 0 {
			b.StopTimer()
			if err := s.rotateWAL(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(len(rec.Cycle.Placement.Bytes())), "placement-bytes")
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
