package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
)

// TestDaemonShardedModePublishesZoneStats runs a daemon with the shard
// coordinator engaged and checks that /placement and /metrics expose
// the per-zone snapshots operators steer by.
func TestDaemonShardedModePublishesZoneStats(t *testing.T) {
	cl, err := cluster.Uniform(4, 3000, 4096)
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
		Dynamic:      control.DynamicConfig{Shards: 2, ShardSeed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(d.Stop)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	if err := d.SubmitJob(dynplace.JobSpec{
		Name: "batch", WorkMcycles: 3000 * 300, MaxSpeedMHz: 3000,
		MemoryMB: 1000, Deadline: 3600,
	}, true); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWebApp(dynplace.WebAppSpec{
		Name: "shop", ArrivalRate: 20, DemandPerRequest: 50,
		GoalResponseTime: 0.25, MemoryMB: 1200,
	}, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(120)

	snap := getPlacement(t, srv.URL)
	if len(snap.Shards) != 2 {
		t.Fatalf("placement shards = %d, want 2", len(snap.Shards))
	}
	totalNodes, totalApps := 0, 0
	for _, s := range snap.Shards {
		totalNodes += s.Nodes
		totalApps += s.WebApps + s.Jobs
		if s.CPUMHz <= 0 || s.MemMB <= 0 {
			t.Fatalf("shard %d reports no capacity: %+v", s.Shard, s)
		}
	}
	if totalNodes != 4 {
		t.Fatalf("shard nodes sum to %d, want 4", totalNodes)
	}
	if totalApps != 2 {
		t.Fatalf("shard workloads sum to %d, want 2", totalApps)
	}

	status, body := do(t, http.MethodGet, srv.URL+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", status, body)
	}
	var mv MetricsView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	if len(mv.Shards) != 2 {
		t.Fatalf("metrics shards = %d, want 2", len(mv.Shards))
	}
	if len(mv.History) == 0 {
		t.Fatal("no cycle history")
	}
	last := mv.History[len(mv.History)-1]
	if last.MaxShardUtilization <= 0 {
		t.Fatalf("cycle history lacks shard utilization: %+v", last)
	}
}
