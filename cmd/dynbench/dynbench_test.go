package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynplace"
	"dynplace/internal/daemon"
)

var updateContract = flag.Bool("update-contract", false, "rewrite ../../BENCHMARK.json from the metric tables")

func TestTailPercent(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{60, 83},   // 10 of 60 samples lie beyond p83
		{30, 66},   // 10 of 30 beyond p66
		{3840, 99}, // capped: p99 has 38 beyond it
		{1000, 99},
		{25, 60},
		{20, 50}, // exactly ten beyond the median
		{19, 50}, // too few for any percentile above the median
		{3, 50},
	} {
		if got := tailPercent(tc.n); got != tc.want {
			t.Errorf("tailPercent(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p83 of 1..60 by nearest rank is the 50th value, leaving ten beyond.
	if v, pct := tail(xs); v != 50 || pct != 83 {
		t.Errorf("tail(1..60) = %v at p%d, want 50 at p83", v, pct)
	}
}

func TestMedianOfSlices(t *testing.T) {
	if got := median([]float64{9, 1, 5, 3, 7}); got != 5 {
		t.Errorf("median of five slices = %v, want the middle slice 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cycle", StartNs: 0, EndNs: 100},
		// Two concurrent zone solves overlap; together they cover 10–60.
		{ID: 2, Parent: 1, Name: "zone_solve:0", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "zone_solve:1", StartNs: 30, EndNs: 60},
		// A child sticking out of the parent counts only inside it: 90–100.
		{ID: 4, Parent: 1, Name: "journal", StartNs: 90, EndNs: 120},
		// A grandchild does not reduce the grandparent's self time twice.
		{ID: 5, Parent: 2, Name: "evaluate", StartNs: 15, EndNs: 20},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 100-50-10 {
		t.Errorf("cycle self time = %d, want 40", got)
	}
	if got := self[2]; got != 30-5 {
		t.Errorf("zone_solve:0 self time = %d, want 25", got)
	}
	if got := self[3]; got != 30 {
		t.Errorf("zone_solve:1 self time = %d, want 30", got)
	}
}

func TestRecorderTraceIDs(t *testing.T) {
	var none *recorder
	if id := none.begin(0, "x"); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	none.end(0)

	rec := newRecorder("w")
	root := rec.begin(0, "window")
	child := rec.begin(root, "cycle")
	rec.importChild(child, "solve", 0, 5)
	rec.end(child)
	rec.end(root)
	other := rec.begin(0, "route")
	rec.end(other)
	spans := rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	for _, s := range spans[:3] {
		if s.Trace != root {
			t.Errorf("span %q has trace %d, want the root's id %d", s.Name, s.Trace, root)
		}
	}
	if spans[3].Trace != other {
		t.Errorf("second root has trace %d, want its own id %d", spans[3].Trace, other)
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metricDef{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cycles_per_s", Better: "higher", Bound: 0.07}
	absHigher := metricDef{Name: "web_utility_min", Better: "higher", Bound: 0.01, Abs: true}
	absLower := metricDef{Name: "fail_pct", Better: "lower", Abs: true}
	for _, tc := range []struct {
		def        metricDef
		base, cand float64
		regressed  bool
	}{
		{lower, 100, 109, false},   // 9 % slower, inside 10 %
		{lower, 100, 111, true},    // 11 % slower
		{lower, 100, 50, false},    // faster is never a regression
		{higher, 100, 94, false},   // 6 % less throughput, inside 7 %
		{higher, 100, 92, true},    // 8 % less
		{higher, 100, 150, false},  // more throughput
		{lower, 0, 0, false},       // nothing to compare
		{lower, 0, 1, true},        // from nothing to something
		{higher, 0.5, 0.45, true},  // 10 % lower utility
		{higher, 0.5, 0.49, false}, // 2 % lower
		{higher, -0.5, -0.6, true}, // a negative utility falling further
		{higher, -0.5, -0.4, false},
		{higher, 0, -1, true}, // from nothing to worse than nothing
		{higher, 0, 1, false},
		{absHigher, -0.1, -0.105, false}, // 0.005 lower, inside 0.01 absolute
		{absHigher, -0.1, -0.12, true},
		{absLower, 0, 0, false}, // fail_pct: bound 0
		{absLower, 0, 0.001, true},
	} {
		got := compareMetric(tc.def, tc.base, tc.cand)
		if got.Regressed != tc.regressed {
			t.Errorf("%s %v → %v: regressed = %v (worse %.3f), want %v",
				tc.def.Name, tc.base, tc.cand, got.Regressed, got.Worse, tc.regressed)
		}
	}
}

func TestCompareSets(t *testing.T) {
	full := func(v float64) map[string]value {
		m := make(map[string]value)
		for _, def := range endToEnd {
			m[def.Name] = value{Value: v}
		}
		return m
	}
	outs := func(utilMin, ontime, changes, fail float64) map[string]value {
		return map[string]value{
			"web_utility_min": {Value: utilMin}, "jobs_ontime_pct": {Value: ontime},
			"placement_changes": {Value: changes}, "fail_pct": {Value: fail},
		}
	}
	good := func() report {
		return report{Workload: "flat_750", Correct: true, Attempted: 10, Metrics: full(100), Outputs: outs(0.5, 100, 20, 0)}
	}
	base := resultSet{Reports: []report{
		good(),
		{Workload: "flat_750", Traced: true, Correct: true, Metrics: map[string]value{"read_p50_ms": {Value: 1e9}}},
	}}
	regressions := func(cand resultSet) map[string]string {
		out := make(map[string]string)
		for _, c := range compareSets(base, cand) {
			if c.Regressed {
				out[c.Metric] = c.Why
			}
		}
		return out
	}
	only := func(name string, cand report, want ...string) {
		t.Helper()
		got := regressions(resultSet{Reports: []report{cand}})
		if len(got) != len(want) {
			t.Errorf("%s: regressions %v, want exactly %v", name, got, want)
		}
		for _, metric := range want {
			if _, found := got[metric]; !found {
				t.Errorf("%s: %s did not regress (got %v)", name, metric, got)
			}
		}
	}

	only("same values (the baseline's traced report must be ignored)", good())

	slow := good()
	slow.Metrics["read_p50_ms"] = value{Value: 130}
	only("a slower read", slow, "read_p50_ms")

	// A broken candidate must not compare clean.
	if got := regressions(resultSet{}); len(got) != 1 || got["(workload)"] == "" {
		t.Errorf("a candidate set without the workload: regressions %v, want (workload)", got)
	}
	incorrect := good()
	incorrect.Correct = false
	incorrect.Checks = []check{{Name: "cycles_feasible", Detail: "cycle 3"}}
	only("a candidate that failed a check", incorrect, "(correct)")
	failing := good()
	failing.Failed = 1
	failing.Outputs["fail_pct"] = value{Value: 10}
	only("a candidate with a failed operation", failing, "(correct)", "fail_pct")
	unmeasured := good()
	unmeasured.Metrics["recover_s"] = value{} // lower is better: 0 would read as −100 %
	only("a metric the candidate did not measure", unmeasured, "recover_s")
	silent := good()
	delete(silent.Outputs, "jobs_ontime_pct")
	only("an output the candidate does not report", silent, "jobs_ontime_pct")

	// Output bounds: absolute for utility and on-time share, 5 % for changes.
	for _, tc := range []struct {
		name                           string
		utilMin, ontime, changes, fail float64
		want                           []string
	}{
		{"inside every output bound", 0.491, 99.6, 21, 0, nil},
		{"utility 0.011 lower", 0.489, 100, 20, 0, []string{"web_utility_min"}},
		{"0.6 points fewer on time", 0.5, 99.4, 20, 0, []string{"jobs_ontime_pct"}},
		{"10 % more changes", 0.5, 100, 22, 0, []string{"placement_changes"}},
		{"better on every output", 0.9, 100, 5, 0, nil},
	} {
		cand := good()
		cand.Outputs = outs(tc.utilMin, tc.ontime, tc.changes, tc.fail)
		only(tc.name, cand, tc.want...)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) []float64 {
		in := newInputs(seed)
		var drawn []float64
		for i := 0; i < 50; i++ {
			j := in.scaleJob("j", 600)
			drawn = append(drawn, in.webRate(scaleRates), in.webRate(httpRates), j.WorkMcycles, j.Deadline, in.httpJob("h").WorkMcycles)
		}
		return drawn
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("the same seed drew different inputs")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("two seeds drew the same inputs")
	}

	// The scale workloads run one scenario whatever the seed, unless
	// -scenario names another; http_mixed's scenario is the seed's.
	scale := cycleWorkload{scenario: scaleScenario}
	if a, b := scale.scenarioSeed(&env{seed: 7}), scale.scenarioSeed(&env{seed: 8}); a != b || a != scaleScenario {
		t.Errorf("a scale workload's scenario moved with the seed: %d, %d", a, b)
	}
	if got := scale.scenarioSeed(&env{seed: 7, scenario: 42}); got != 42 {
		t.Errorf("-scenario 42 gave scenario seed %d", got)
	}
	if got := (cycleWorkload{}).scenarioSeed(&env{seed: 7}); got != 7 {
		t.Errorf("a workload without a fixed scenario drew from seed %d, want the run's 7", got)
	}

	w := cycleWorkload{webApps: 3, cycleSeconds: 30, season: 600, rates: replayRates}
	if !reflect.DeepEqual(replayTraceFor(7, w), replayTraceFor(7, w)) {
		t.Error("the same seed generated different replay traces")
	}
	if reflect.DeepEqual(replayTraceFor(7, w).Loads, replayTraceFor(8, w).Loads) {
		t.Error("two seeds generated the same replay trace")
	}
}

func TestJobQuality(t *testing.T) {
	results := []dynplace.JobResult{
		{Name: "early", Completed: true, CompletedAt: 50, Utility: 0.5},
		{Name: "late", Completed: true, CompletedAt: 150, Utility: -0.5},
		{Name: "after", Completed: true, CompletedAt: 500, Utility: 0.9},
		{Name: "never"},
	}
	deadlines := map[string]float64{"early": 100, "late": 100, "after": 600, "never": 200}
	util, ontime, completed, due := jobQuality(results, deadlines, 300)
	if completed != 2 || due != 3 {
		t.Fatalf("completed %d due %d, want 2 and 3", completed, due)
	}
	if util != 0 {
		t.Errorf("utility mean %v, want 0 (0.5 and −0.5; the job finishing after the horizon is not scored)", util)
	}
	if want := 100.0 / 3; ontime < want-1e-9 || ontime > want+1e-9 {
		t.Errorf("ontime %v%%, want %v%% (only \"early\" met a deadline that fell due)", ontime, want)
	}
}

func TestCheckPlacement(t *testing.T) {
	fp := newFootprints()
	fp.webMemMB["web"] = 2000
	fp.jobMemMB["job"] = 4000
	snap := func(power, speed float64) *daemon.PlacementSnapshot {
		return &daemon.PlacementSnapshot{
			Cycle: 3,
			Web:   []daemon.WebPlacementView{{Name: "web", Instances: []daemon.InstanceView{{Node: "n0", PowerMHz: power}}}},
			Jobs:  []daemon.JobPlacementView{{Name: "job", Node: "n0", SpeedMHz: speed}, {Name: "queued"}},
			Nodes: []daemon.NodeView{{Name: "n0", CPUMHz: 1000, MemMB: 6000}},
		}
	}
	if err := checkPlacement(snap(600, 400), fp); err != nil {
		t.Errorf("a node filled exactly to capacity was rejected: %v", err)
	}
	if err := checkPlacement(snap(600, 401), fp); err == nil {
		t.Error("CPU over capacity was accepted")
	}
	fp.jobMemMB["job"] = 4001
	if err := checkPlacement(snap(100, 100), fp); err == nil {
		t.Error("memory over capacity was accepted")
	}
	failed := snap(1, 1)
	failed.Infeasible = true
	if err := checkPlacement(failed, fp); err == nil {
		t.Error("an infeasible cycle was accepted")
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractLayer    `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestContractMatchesTables keeps BENCHMARK.json in step with the metric
// and workload tables the program reports from. Run with
// -update-contract to regenerate the file.
func TestContractMatchesTables(t *testing.T) {
	want := contract{
		Command:    []string{"bash", "cmd/dynbench/run.sh"},
		Paths:      []string{"cmd/dynbench"},
		RunSeconds: 15,
	}
	for _, w := range workloads(false) {
		want.Workloads = append(want.Workloads, contractWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, contractLayer{m.Name, m.Unit, m.Better})
	}
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *updateContract {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables in metrics.go/main.go disagree; run go test ./cmd/dynbench -run TestContractMatchesTables -update-contract")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: name or unit %q too long", m.Name, m.Unit)
		}
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, over the contract's 200", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, so
// the harness keeps compiling against the daemon and its output checks
// stay live.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon and builds dynplaced")
	}
	dir := t.TempDir()
	bin, err := buildDynplaced(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()
	for i, w := range workloads(true) {
		e := &env{seed: 3, seconds: 1, workDir: dir, dynplaced: bin}
		// One workload also takes the traced path: spans, imports, probes.
		if e.traced = i == 2; e.traced {
			e.rec = newRecorder(w.name)
		}
		begin := time.Now()
		out, err := w.run(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s ran for %.1f s", w.name, time.Since(begin).Seconds())
		rep := buildReport(w.name, e.traced, header{Seed: e.seed, Seconds: e.seconds}, out)
		for _, c := range rep.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, rep.Attempted, rep.Failed)
		}
		if e.traced {
			for _, name := range []string{"core.optimize_ms", "daemon.cycle_span_ms", "store.append_p50_us", "router.dispatch_ns", "obs.scrape_encode_ms"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %v, want > 0", w.name, name, rep.Metrics[name].Value)
				}
			}
			if len(e.rec.snapshot()) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.name)
			}
			continue
		}
		for _, def := range endToEnd {
			if def.Name == "job_utility_mean" {
				// Whether a job finishes inside a toy window depends on the
				// box: over loopback a job boots for longer than the window
				// lasts, and under the race detector the time cap ends the
				// cycle phase after its first few cycles.
				continue
			}
			if v := rep.Metrics[def.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.Name, v)
			}
		}
	}
}
