package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"

	"dynplace/internal/metrics"
)

// scaled options keep test runs fast while preserving each experiment's
// qualitative shape.

func scaled1() Experiment1Options {
	o := DefaultExperiment1Options()
	o.Nodes = 6
	o.Jobs = 60
	return o
}

func scaled2() Experiment2Options {
	o := DefaultExperiment2Options()
	o.Nodes = 5
	o.Jobs = 80
	o.Interarrivals = []float64{1200, 300}
	return o
}

func scaled3() Experiment3Options {
	o := DefaultExperiment3Options()
	o.Nodes = 25 // the web parameters assume the paper's cluster
	// 90 heavy arrivals over ≈16,000 s outnumber the 75 memory slots, so
	// the batch side saturates and contends with the web workload.
	o.HeavyJobs = 90
	o.LightJobs = 10
	o.HeavyInterarrival = 180
	o.LightInterarrival = 600
	o.Horizon = 25000
	return o
}

func TestExperiment1Shape(t *testing.T) {
	res, err := RunExperiment1(scaled1())
	if err != nil {
		t.Fatalf("RunExperiment1: %v", err)
	}
	// Identical jobs: the paper observes no suspends or migrations.
	if res.Changes != 0 {
		t.Fatalf("changes = %d, paper makes none", res.Changes)
	}
	if math.Abs(res.UtilityCeiling-0.63) > 0.01 {
		t.Fatalf("utility ceiling = %v, want 0.63 (paper)", res.UtilityCeiling)
	}
	if len(res.HypotheticalUtility) == 0 || len(res.CompletionUtility) == 0 {
		t.Fatal("missing series")
	}
	// Early hypothetical utility sits at the 0.63 ceiling (no queue yet).
	first := res.HypotheticalUtility[1]
	if math.Abs(first.V-0.63) > 0.02 {
		t.Fatalf("initial hypothetical utility = %v, want ≈0.63", first.V)
	}
	// Completion utilities never exceed the ceiling.
	for _, p := range res.CompletionUtility {
		if p.V > res.UtilityCeiling+1e-6 {
			t.Fatalf("completion utility %v above ceiling", p.V)
		}
	}
	// The paper's Figure 2 claim: the completion-utility curve follows
	// the hypothetical curve shifted by roughly one execution time
	// (≈17,600 s). Compare each completion against the prediction one
	// execution time earlier; the median error must be small.
	const shift = 17600.0
	var errs []float64
	for _, p := range res.CompletionUtility {
		predicted, ok := valueAtOK(res.HypotheticalUtility, p.T-shift)
		if !ok {
			continue
		}
		errs = append(errs, math.Abs(predicted-p.V))
	}
	if len(errs) < len(res.CompletionUtility)/2 {
		t.Fatalf("too few matched predictions: %d of %d", len(errs), len(res.CompletionUtility))
	}
	sort.Float64s(errs)
	if med := errs[len(errs)/2]; med > 0.15 {
		t.Fatalf("shifted prediction error: median %v (errors %v...)", med, errs[len(errs)-3:])
	}
}

// valueAt returns the last series value at or before t (0 if none).
func valueAt(pts []metrics.Point, t float64) float64 {
	v, _ := valueAtOK(pts, t)
	return v
}

func valueAtOK(pts []metrics.Point, t float64) (float64, bool) {
	var v float64
	found := false
	for _, p := range pts {
		if p.T > t {
			break
		}
		v = p.V
		found = true
	}
	return v, found
}

func TestExperiment2Shape(t *testing.T) {
	cells, err := RunExperiment2(scaled2())
	if err != nil {
		t.Fatalf("RunExperiment2: %v", err)
	}
	byKey := make(map[string]*Experiment2Cell)
	for _, c := range cells {
		byKey[c.Policy+"@"+metrics.FormatFloat(c.Interarrival)] = c
	}
	// Underloaded: all policies near-perfect (paper: no significant
	// difference above 100 s at full scale).
	for _, p := range []string{"FCFS", "EDF", "APC"} {
		c := byKey[p+"@1200"]
		if c == nil || c.OnTimeRate < 0.90 {
			t.Fatalf("%s underloaded on-time = %+v, want ≥0.90", p, c)
		}
	}
	// Loaded: FCFS must fall behind EDF and APC; FCFS makes no changes.
	fcfs, edf, apc := byKey["FCFS@300"], byKey["EDF@300"], byKey["APC@300"]
	if fcfs == nil || edf == nil || apc == nil {
		t.Fatal("missing cells")
	}
	if fcfs.Changes != 0 {
		t.Fatalf("FCFS changes = %d, must be 0 (non-preemptive)", fcfs.Changes)
	}
	if fcfs.OnTimeRate >= edf.OnTimeRate {
		t.Fatalf("loaded: FCFS %.3f not below EDF %.3f", fcfs.OnTimeRate, edf.OnTimeRate)
	}
	if apc.OnTimeRate < fcfs.OnTimeRate {
		t.Fatalf("loaded: APC %.3f below FCFS %.3f", apc.OnTimeRate, fcfs.OnTimeRate)
	}
	// APC must not disturb the system substantially more than EDF. (At
	// the paper's full 25-node scale APC makes clearly fewer changes —
	// verified by the Figure 4 benchmark; the 5-node shrink coarsens the
	// fluid model enough that the two come out close.)
	if float64(apc.Changes) > 1.3*float64(edf.Changes) {
		t.Fatalf("APC changes %d far exceed EDF changes %d", apc.Changes, edf.Changes)
	}
	// Distance distributions carry all three goal factors.
	for _, f := range []string{"1.3", "2.5", "4.0"} {
		if len(apc.DistancesByFactor[f]) == 0 {
			t.Fatalf("no distances for factor %s", f)
		}
	}
}

func TestExperiment3Shapes(t *testing.T) {
	opts := scaled3()

	dynamic, err := RunExperiment3(opts, ConfigDynamic)
	if err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	static9, err := RunExperiment3(opts, ConfigStatic9)
	if err != nil {
		t.Fatalf("static9: %v", err)
	}
	static6, err := RunExperiment3(opts, ConfigStatic6)
	if err != nil {
		t.Fatalf("static6: %v", err)
	}

	// Static 9 nodes fully satisfy the web workload: utility pinned at
	// the ≈0.65 cap throughout.
	for _, p := range static9.WebUtility {
		if math.Abs(p.V-0.65) > 0.02 {
			t.Fatalf("static9 web utility %v at t=%v, want ≈0.65 constant", p.V, p.T)
		}
	}
	// Static 6 nodes: clearly lower, ≈0.4 (the paper's consistently-
	// lower-than-dynamic line).
	for _, p := range static6.WebUtility {
		if math.Abs(p.V-0.40) > 0.03 {
			t.Fatalf("static6 web utility %v at t=%v, want ≈0.40 constant", p.V, p.T)
		}
	}
	// Dynamic: starts at the cap while the system is empty.
	if len(dynamic.WebUtility) == 0 {
		t.Fatal("dynamic web series empty")
	}
	early := dynamic.WebUtility[0].V
	if math.Abs(early-0.65) > 0.02 {
		t.Fatalf("dynamic initial web utility = %v, want ≈0.65", early)
	}
	// Under batch pressure the dynamic configuration gives CPU away: the
	// web utility dips below its cap and equalizes with the batch level,
	// then recovers once the queue drains (the Figure 6 shape).
	troughU, troughIdx := dynamic.WebUtility[0].V, 0
	for i, p := range dynamic.WebUtility {
		if p.V < troughU {
			troughU, troughIdx = p.V, i
		}
	}
	if troughU > 0.63 {
		t.Fatalf("dynamic web utility never dropped under contention (min %v)", troughU)
	}
	troughT := dynamic.WebUtility[troughIdx].T
	batchAtTrough := valueAt(dynamic.BatchUtility, troughT)
	if math.Abs(troughU-batchAtTrough) > 0.08 {
		t.Fatalf("no equalization at the trough: web %v vs batch %v", troughU, batchAtTrough)
	}
	finalU := dynamic.WebUtility[len(dynamic.WebUtility)-1].V
	if finalU < 0.64 {
		t.Fatalf("web utility did not recover after the drain: %v", finalU)
	}
	// The batch side must do at least as well as the best static
	// partition on goal satisfaction.
	if dynamic.OnTimeRate+1e-9 < math.Min(static9.OnTimeRate, static6.OnTimeRate) {
		t.Fatalf("dynamic on-time %.3f below both static configs (%.3f, %.3f)",
			dynamic.OnTimeRate, static9.OnTimeRate, static6.OnTimeRate)
	}
	// Dynamic batch allocation exceeds the 16-node static partition's
	// batch capacity share at peak.
	var peak float64
	for _, p := range dynamic.BatchAllocation {
		if p.V > peak {
			peak = p.V
		}
	}
	if peak < 200000 {
		t.Fatalf("dynamic peak batch allocation = %v, want >200000 MHz", peak)
	}
}

func TestRenderers(t *testing.T) {
	if s := Table1Text(); !strings.Contains(s, "relative goal factor") {
		t.Fatalf("Table1Text:\n%s", s)
	}
	if s := Table2Text(); !strings.Contains(s, "68640000") {
		t.Fatalf("Table2Text:\n%s", s)
	}
	res := &Experiment1Result{
		HypotheticalUtility: []metrics.Point{{T: 0, V: 0.63}, {T: 600, V: 0.6}},
		CompletionUtility:   []metrics.Point{{T: 17600, V: 0.62}},
		UtilityCeiling:      0.63,
		OnTimeRate:          1,
	}
	if s := Figure2Text(res, 5); !strings.Contains(s, "hypothetical") {
		t.Fatalf("Figure2Text:\n%s", s)
	}
	cells := []*Experiment2Cell{
		{Policy: "FCFS", Interarrival: 400, OnTimeRate: 0.99, Changes: 0,
			DistancesByFactor: map[string][]float64{"1.3": {100, -50}}},
		{Policy: "APC", Interarrival: 400, OnTimeRate: 0.97, Changes: 12,
			DistancesByFactor: map[string][]float64{"1.3": {10, 20}}},
	}
	if s := Figure3Table(cells); !strings.Contains(s, "99.0%") {
		t.Fatalf("Figure3Table:\n%s", s)
	}
	if s := Figure4Table(cells); !strings.Contains(s, "12") {
		t.Fatalf("Figure4Table:\n%s", s)
	}
	if s := Figure5Table(cells, 400); !strings.Contains(s, "FCFS") {
		t.Fatalf("Figure5Table:\n%s", s)
	}
	res3 := &Experiment3Result{
		Config:          ConfigDynamic,
		WebUtility:      []metrics.Point{{T: 0, V: 0.65}},
		BatchUtility:    []metrics.Point{{T: 0, V: 0.6}},
		WebAllocation:   []metrics.Point{{T: 0, V: 130000}},
		BatchAllocation: []metrics.Point{{T: 0, V: 100000}},
	}
	if s := Figure6Text(res3, 3); !strings.Contains(s, "TX workload") {
		t.Fatalf("Figure6Text:\n%s", s)
	}
	if s := Figure7Text(res3, 3); !strings.Contains(s, "LR allocation") {
		t.Fatalf("Figure7Text:\n%s", s)
	}
	if ConfigStatic9.String() != "TX 9 nodes, LR 16 nodes" {
		t.Fatal("config string")
	}
}

func TestWorkedExampleTextDecisions(t *testing.T) {
	out := WorkedExampleText()
	// Scenario 1, cycle 2: J1 keeps the full node (paper's P2 choice).
	// The whole line is pinned: cycle 1 prints J1@1000MHz whatever the
	// solver decides at cycle 2.
	s1 := out[strings.Index(out, "Scenario 1"):strings.Index(out, "Scenario 2")]
	if !strings.Contains(s1, "\n  cycle 2 (t=1): J1@1000MHz\n") {
		t.Fatalf("S1 cycle 2 decision missing:\n%s", s1)
	}
	// Scenario 2, cycle 3: J1 suspended, J2 and J3 run.
	s2 := out[strings.Index(out, "Scenario 2"):]
	if !strings.Contains(s2, "J2@500MHz, J3@500MHz") {
		t.Fatalf("S2 cycle 3 decision missing:\n%s", s2)
	}
	// Both scenarios present.
	if strings.Count(out, "cycle 1") != 2 {
		t.Fatalf("expected two scenario walks:\n%s", out)
	}
}
