package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

// goldenRecord pins one seeded problem's optimizer output bit for bit.
// The file was recorded before the evaluator was rewritten around
// per-cycle constants and reusable arenas, so a passing test says the
// rewrite changed no decision and no float.
type goldenRecord struct {
	// Result hashes the adopted placement and the bit patterns of
	// PerApp, Utilities, WebShares and OmegaG, plus Changes and Repaired.
	Result string `json:"result"`
	// FullEvaluate hashes Evaluate(p, adopted placement): the
	// non-incremental path, memory scan included.
	FullEvaluate string `json:"full_evaluate"`
	// Explain hashes every AppDecision of Explain(p, res, nil).
	Explain    string `json:"explain"`
	Candidates int    `json:"candidates"`
	// Probes and FlowSolves are the solver's work counters: the same
	// before and after an optimisation that only makes the work cheaper.
	Probes     int `json:"probes"`
	FlowSolves int `json:"flow_solves"`
}

type hasher struct{ buf []byte }

func (h *hasher) int(v int)     { h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(int64(v))) }
func (h *hasher) f64(v float64) { h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v)) }
func (h *hasher) str(s string)  { h.int(len(s)); h.buf = append(h.buf, s...) }
func (h *hasher) f64s(v []float64) {
	h.int(len(v))
	for _, x := range v {
		h.f64(x)
	}
}
func (h *hasher) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

func hashEvaluation(h *hasher, pl *Placement, ev *Evaluation) {
	h.int(pl.Apps())
	for app := 0; app < pl.Apps(); app++ {
		nodes := pl.NodesOf(app)
		h.int(len(nodes))
		for _, nd := range nodes {
			h.int(int(nd))
		}
	}
	if ev.Feasible {
		h.int(1)
	} else {
		h.int(0)
	}
	h.f64s(ev.PerApp)
	h.f64s(ev.Utilities)
	h.f64s(ev.Vector)
	h.f64(ev.OmegaG)
	apps := make([]int, 0, len(ev.WebShares))
	for app := range ev.WebShares {
		apps = append(apps, app)
	}
	sort.Ints(apps)
	h.int(len(apps))
	for _, app := range apps {
		h.int(app)
		h.f64s(ev.WebShares[app])
	}
}

func goldenOf(t *testing.T, p *Problem) goldenRecord {
	t.Helper()
	res, err := Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	var rec goldenRecord
	h := &hasher{}
	hashEvaluation(h, res.Placement, res.Eval)
	h.int(res.Changes)
	if res.Repaired {
		h.int(1)
	} else {
		h.int(0)
	}
	rec.Result = h.sum()
	rec.Candidates = res.CandidatesEvaluated
	rec.Probes, rec.FlowSolves = res.Probes, res.FlowSolves

	full, err := Evaluate(p, res.Placement)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	h = &hasher{}
	hashEvaluation(h, res.Placement, full)
	rec.FullEvaluate = h.sum()

	h = &hasher{}
	for _, d := range Explain(p, res, nil).Decisions {
		h.int(d.App)
		h.str(d.Outcome)
		h.str(d.Binding)
		h.f64(d.Utility)
		h.f64(d.UtilityDelta)
		h.int(len(d.Reasons))
		for _, r := range d.Reasons {
			h.str(r)
		}
	}
	rec.Explain = h.sum()
	return rec
}

// goldenMixed: three web applications, two of them sharing hosts (so
// every probe routes by max-flow), multi-stage jobs with speed floors,
// anti-collocation both job↔job and job↔web, pins, suspended jobs with
// a last node, on a heterogeneous cluster.
func goldenMixed(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	var nodes []cluster.Node
	for i := 0; i < 12; i++ {
		nodes = append(nodes, cluster.Node{
			CPUMHz: 12000 + float64(i%3)*3600,
			MemMB:  12288 + float64(i%2)*4096,
		})
	}
	cl, err := cluster.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	const nWeb, nJobs = 3, 30
	apps := make([]*Application, 0, nWeb+nJobs)
	current := NewPlacement(nWeb + nJobs)
	last := make([]cluster.NodeID, nWeb+nJobs)
	for i := range last {
		last[i] = -1
	}
	for i := 0; i < nWeb; i++ {
		web := &txn.App{
			Name:             fmt.Sprintf("web-%d", i),
			ArrivalRate:      60 + rng.Float64()*60,
			DemandPerRequest: 110,
			BaseLatency:      0.03,
			GoalResponseTime: 0.25,
			MaxPowerMHz:      24000 + rng.Float64()*12000,
			MemoryMB:         1800,
		}
		if i == 2 {
			web.GoalPercentile = 95
			web.MaxPowerMHz = 0
		}
		apps = append(apps, &Application{Name: web.Name, Kind: KindWeb, Web: web})
	}
	// web-0 on nodes 0,1,2; web-1 on 1,2,3: two shared hosts.
	for _, nd := range []cluster.NodeID{0, 1, 2} {
		current.Add(0, nd)
	}
	for _, nd := range []cluster.NodeID{1, 2, 3} {
		current.Add(1, nd)
	}
	for j := 0; j < nJobs; j++ {
		name := fmt.Sprintf("job-%d", j)
		var spec *batch.Spec
		if j%3 == 0 {
			w := 2e6 + rng.Float64()*2e7
			spec = &batch.Spec{
				Name: name,
				Stages: []batch.Stage{
					{WorkMcycles: w * 0.3, MaxSpeedMHz: 1200 + rng.Float64()*800, MemoryMB: 2000 + rng.Float64()*1500},
					{WorkMcycles: w * 0.5, MaxSpeedMHz: 2400 + rng.Float64()*1500, MinSpeedMHz: 200, MemoryMB: 3000 + rng.Float64()*1500},
					{WorkMcycles: w * 0.2, MaxSpeedMHz: 800 + rng.Float64()*800, MemoryMB: 1500 + rng.Float64()*500},
				},
				Submit: 0, DesiredStart: 0,
				Deadline: 14000 + rng.Float64()*40000,
			}
		} else {
			spec = batch.SingleStage(name, 1e6+rng.Float64()*3e7,
				1500+rng.Float64()*2400, 2500+rng.Float64()*2500, 0, 12000+rng.Float64()*50000)
		}
		app := &Application{Name: name, Kind: KindBatch, Job: spec}
		switch {
		case j%7 == 3:
			app.AntiCollocate = []string{fmt.Sprintf("job-%d", j-1)}
		case j%11 == 5:
			app.AntiCollocate = []string{"web-1"}
		}
		if j%5 == 4 {
			app.PinnedNodes = []cluster.NodeID{cluster.NodeID(rng.Intn(12)), cluster.NodeID(rng.Intn(12))}
		}
		idx := nWeb + j
		switch rng.Intn(4) {
		case 0: // queued, never started
		case 1: // suspended with progress
			app.Done = rng.Float64() * spec.TotalWork() * 0.5
			app.Started = true
			last[idx] = cluster.NodeID(rng.Intn(12))
		default: // running
			app.Done = rng.Float64() * spec.TotalWork() * 0.8
			app.Started = true
			nd := cluster.NodeID(rng.Intn(12))
			if len(app.PinnedNodes) > 0 {
				nd = app.PinnedNodes[0]
			}
			current.Add(idx, nd)
		}
		apps = append(apps, app)
	}
	return &Problem{
		Cluster: cl, Now: 10000, Cycle: 600, Apps: apps,
		Current: current, LastNode: last, Costs: cluster.DefaultCostModel(),
	}
}

// goldenBatchContended: jobs only, three times the work the cluster can
// finish on time, most of it already placed.
func goldenBatchContended(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(202))
	cl, err := cluster.Uniform(8, 9000, 16384)
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 44
	apps := make([]*Application, nJobs)
	current := NewPlacement(nJobs)
	for j := range apps {
		work := 2e6 + rng.Float64()*5e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			2000+rng.Float64()*3000, 3500+rng.Float64()*1500, 0, 11000+rng.Float64()*9000)
		apps[j] = &Application{Name: spec.Name, Kind: KindBatch, Job: spec}
		if j < 26 {
			apps[j].Done = rng.Float64() * work * 0.6
			apps[j].Started = true
			current.Add(j, cluster.NodeID(j%8))
		}
	}
	return &Problem{
		Cluster: cl, Now: 9000, Cycle: 600, Apps: apps,
		Current: current, Costs: cluster.DefaultCostModel(),
	}
}

// goldenMemoryTight: footprints sized so two or three instances fill a
// node and the input placement overflows some (repair runs); exact
// hypothetical and a custom sampling grid are not combined, so this one
// takes the exact path.
func goldenMemoryTight(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(303))
	cl, err := cluster.Uniform(10, 9000, 8192)
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 28
	apps := make([]*Application, 0, nJobs+1)
	current := NewPlacement(nJobs + 1)
	web := &txn.App{
		Name: "web", ArrivalRate: 90, DemandPerRequest: 100,
		BaseLatency: 0.02, GoalResponseTime: 0.2, MaxPowerMHz: 30000, MemoryMB: 3000,
	}
	apps = append(apps, &Application{Name: web.Name, Kind: KindWeb, Web: web})
	current.Add(0, 0)
	current.Add(0, 1)
	for j := 0; j < nJobs; j++ {
		work := 1e6 + rng.Float64()*2e7
		spec := batch.SingleStage(fmt.Sprintf("job-%d", j), work,
			1500+rng.Float64()*2000, 2500+rng.Float64()*1600, 0, 9000+rng.Float64()*30000)
		app := &Application{Name: spec.Name, Kind: KindBatch, Job: spec}
		if j < 20 {
			app.Done = rng.Float64() * work * 0.5
			app.Started = true
			current.Add(1+j, cluster.NodeID(rng.Intn(10)))
		}
		apps = append(apps, app)
	}
	return &Problem{
		Cluster: cl, Now: 5000, Cycle: 600, Apps: apps,
		Current: current, Costs: cluster.DefaultCostModel(), ExactHypothetical: true,
	}
}

// TestGoldenBitIdentity makes "the optimizer's output did not change" a
// tier-1 fact: three seeded problems, each solved at Parallelism 1 and
// 4, must reproduce the recorded hashes exactly.
func TestGoldenBitIdentity(t *testing.T) {
	problems := []struct {
		name  string
		build func(*testing.T) *Problem
	}{
		{"mixed", goldenMixed},
		{"batch_contended", goldenBatchContended},
		{"memory_tight", goldenMemoryTight},
	}
	// To re-record (only ever from a tree whose output is the reference):
	// delete the file and run the test once; it writes the file and fails.
	path := filepath.Join("testdata", "bit_identity.json")
	want := map[string]goldenRecord{}
	raw, err := os.ReadFile(path)
	record := errors.Is(err, fs.ErrNotExist)
	switch {
	case record:
	case err != nil:
		t.Fatal(err)
	default:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
	}
	got := map[string]goldenRecord{}
	for _, pr := range problems {
		for _, par := range []int{1, 4} {
			p := pr.build(t)
			p.Parallelism = par
			rec := goldenOf(t, p)
			if par == 1 {
				got[pr.name] = rec
			} else if rec != got[pr.name] {
				t.Errorf("%s: Parallelism 4 diverges from 1:\n got %+v\nwant %+v", pr.name, rec, got[pr.name])
			}
			if !record && rec != want[pr.name] {
				t.Errorf("%s (Parallelism %d): output differs from the recorded golden:\n got %+v\nwant %+v",
					pr.name, par, rec, want[pr.name])
			}
		}
	}
	if record {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this tree; review and re-run", path)
	}
}
