package control

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/metrics"
	"dynplace/internal/scheduler"
	"dynplace/internal/trace"
	"dynplace/internal/txn"
)

// runnerHasher folds a Runner's complete observable output into one
// digest: every recorded series, every job's outcome and the action
// totals, with floats hashed by bit pattern.
type runnerHasher struct{ buf []byte }

func (h *runnerHasher) int(v int) { h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(int64(v))) }
func (h *runnerHasher) f64(v float64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
}
func (h *runnerHasher) str(s string) { h.int(len(s)); h.buf = append(h.buf, s...) }
func (h *runnerHasher) flag(b bool) {
	if b {
		h.int(1)
	} else {
		h.int(0)
	}
}

func (h *runnerHasher) series(name string, pts []metrics.Point) {
	h.str(name)
	h.int(len(pts))
	for _, p := range pts {
		h.f64(p.T)
		h.f64(p.V)
	}
}

func runnerDigest(r *Runner) string {
	var h runnerHasher
	h.series("hypothetical", r.HypotheticalUtility().Points())
	h.series("batch_alloc", r.BatchAllocation().Points())
	h.series("queue", r.QueueLength().Points())
	for i := range r.cfg.WebApps {
		h.series("web_util", r.WebUtility(i).Points())
		h.series("web_alloc", r.WebAllocation(i).Points())
	}
	h.series("completion", r.CompletionUtilities())
	jobs := r.Jobs()
	h.int(len(jobs))
	for _, j := range jobs {
		completed := j.Status == scheduler.Completed
		h.str(j.Spec.Name)
		h.flag(completed)
		h.f64(j.CompletedAt)
		h.flag(j.MetGoal())
		if completed {
			h.f64(j.DistanceToGoal())
			h.f64(j.Spec.UtilityAtCompletion(j.CompletedAt))
		}
		h.int(j.Suspends)
		h.int(j.Resumes)
		h.int(j.Migrations)
		h.int(j.Rescues)
	}
	for _, name := range r.Actions().Names() {
		h.str(name)
		h.int(r.Actions().Get(name))
	}
	h.int(r.TotalChanges())
	h.int(int(r.Cycles()))
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// goldenExperiment2 is a scaled Experiment Two cell: the seeded Table 1
// workload on four paper nodes under one batch policy.
func goldenExperiment2(t *testing.T, p scheduler.Policy) *Runner {
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 4, 15600, 16384), CycleSeconds: 300,
		Policy: p, Costs: cluster.FreeCostModel(),
	})
	if err := r.SubmitAll(trace.Experiment2Workload(77, 40, 400)); err != nil {
		t.Fatal(err)
	}
	if err := r.RunUntilDrained(1e7); err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenStaticPartition is policy mode with a static web partition, a
// load schedule and node failures on both sides of the partition.
func goldenStaticPartition(t *testing.T) *Runner {
	web := &txn.App{
		Name: "tx", ArrivalRate: 20, DemandPerRequest: 480,
		BaseLatency: 0.032, GoalResponseTime: 0.120,
		MaxPowerMHz: 30000, MemoryMB: 2000,
	}
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 5, 15600, 16384), CycleSeconds: 300,
		Policy: mustAPC(t, DynamicConfig{}), Costs: cluster.DefaultCostModel(),
		WebApps:  []*txn.App{web},
		WebNodes: []cluster.NodeID{0, 1},
		WebLoad:  [][]LoadPhase{{{Start: 1500, ArrivalRate: 45}, {Start: 4500, ArrivalRate: 10}}},
	})
	if err := r.SubmitAll(trace.Experiment2Workload(5, 24, 300)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []struct {
		at   float64
		node cluster.NodeID
	}{{2100, 1}, {3300, 4}} {
		if err := r.FailNode(ev.at, ev.node); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Run(9000); err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenExperiment3 is Experiment Three's dynamic configuration, scaled
// to ten nodes, with the web load stepping through a schedule.
func goldenExperiment3(t *testing.T) *Runner {
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 10, 15600, 16384), CycleSeconds: 600,
		Dynamic: &DynamicConfig{}, Costs: cluster.DefaultCostModel(),
		WebApps: []*txn.App{trace.Experiment3WebApp()},
		WebLoad: [][]LoadPhase{{
			{Start: 3000, ArrivalRate: 120},
			{Start: 7200, ArrivalRate: 170},
			{Start: 12000, ArrivalRate: 60},
		}},
	})
	if err := r.SubmitAll(trace.Experiment3Workload(1, 30, 10, 180, 600)); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(40000); err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenChurn is the kill-and-recover scenario of
// TestRunnerAddNodeExpandsCapacity, plus a drain once the replacements
// have joined.
func goldenChurn(t *testing.T) *Runner {
	const failAt, recoverAt, drainAt, horizon = 600, 1200, 1800, 3000
	r := mustRunner(t, Config{
		Cluster: mustCluster(t, 4, 15600, 16384), CycleSeconds: 60,
		Costs:   cluster.DefaultCostModel(),
		Dynamic: &DynamicConfig{MaxPasses: 1},
		WebApps: []*txn.App{{
			Name: "web", ArrivalRate: 150, DemandPerRequest: 120,
			BaseLatency: 0.04, GoalResponseTime: 0.25,
			MaxPowerMHz: 30000, MemoryMB: 2000,
		}},
	})
	for j := 0; j < 8; j++ {
		if err := r.Submit(batch.SingleStage(fmt.Sprintf("job-%d", j),
			3.9e6, 3900, 4320, 0, horizon*5/6)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if err := r.FailNode(failAt, cluster.NodeID(3-k)); err != nil {
			t.Fatal(err)
		}
		if err := r.AddNode(recoverAt, cluster.Node{
			Name: fmt.Sprintf("spare-%d", k), CPUMHz: 15600, MemMB: 16384,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.DrainNode(drainAt, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunnerGolden pins the simulated Runner's whole output — series,
// job outcomes, action totals — for each scenario. To re-record (only
// from a tree whose output is the reference): delete the file and run
// the test once; it writes the file and fails.
func TestRunnerGolden(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T) *Runner
	}{
		{"exp2_fcfs", func(t *testing.T) *Runner { return goldenExperiment2(t, scheduler.FCFS{}) }},
		{"exp2_edf", func(t *testing.T) *Runner { return goldenExperiment2(t, scheduler.EDF{}) }},
		{"exp2_apc", func(t *testing.T) *Runner {
			return goldenExperiment2(t, mustAPC(t, DynamicConfig{}))
		}},
		{"static_partition_fail", goldenStaticPartition},
		{"exp3_dynamic_load", goldenExperiment3},
		{"fail_add_drain", goldenChurn},
	}
	path := filepath.Join("testdata", "runner_golden.json")
	want := map[string]string{}
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
	got := map[string]string{}
	for _, sc := range scenarios {
		r := sc.run(t)
		t.Logf("%s: %d cycles, %d jobs, on-time %.3f, %d changes, %d actions, %d web samples",
			sc.name, r.Cycles(), len(r.Jobs()), r.OnTimeRate(), r.TotalChanges(), r.Actions().Total(), r.WebUtility(0).Len())
		got[sc.name] = runnerDigest(r)
		if !record && got[sc.name] != want[sc.name] {
			t.Errorf("%s: runner output differs from the recorded golden: got %s, want %s",
				sc.name, got[sc.name], want[sc.name])
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
