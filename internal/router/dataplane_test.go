package router

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDispatchZeroAllocs pins the lock-free dispatch path at zero
// allocations per call — the property that lets it run at millions of
// requests per second without feeding the garbage collector.
func TestDispatchZeroAllocs(t *testing.T) {
	r := New(8)
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: 3000},
		{Node: "n1", PowerMHz: 1000},
		{Node: "n2", PowerMHz: 2000},
	})

	picks := [...]float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999}
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := r.Dispatch("app", picks[i%len(picks)]); err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
		i++
	}); got != 0 {
		t.Fatalf("Dispatch allocates %.1f allocs/op, want 0", got)
	}

	if got := testing.AllocsPerRun(1000, func() {
		if _, err := r.DispatchBalanced("app"); err != nil {
			t.Fatalf("DispatchBalanced: %v", err)
		}
	}); got != 0 {
		t.Fatalf("DispatchBalanced allocates %.1f allocs/op, want 0", got)
	}

	// The queue path (no capacity) must also stay allocation-free up to
	// the point a request is accepted into the queue.
	r.Update("starved", nil)
	if got := testing.AllocsPerRun(1000, func() {
		node, err := r.Dispatch("starved", 0.5)
		if err != nil || node != "" {
			t.Fatalf("queue dispatch = %q, %v", node, err)
		}
		r.Drain("starved", 1)
	}); got != 0 {
		t.Fatalf("queue-path Dispatch allocates %.1f allocs/op, want 0", got)
	}
}

// TestDispatchHammer races many dispatchers against concurrent Update,
// Publish, Remove/re-register and Snapshot — run under -race this is
// the memory-safety proof of the lock-free design. Every dispatch must
// return a coherent result (a known node, a queue acceptance, a
// rejection, or ErrUnknownApp during a removal window) and the final
// accounting must balance.
func TestDispatchHammer(t *testing.T) {
	const (
		workers       = 8
		perWorker     = 5000
		controlRounds = 400
	)
	r := New(4)
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: 1000},
		{Node: "n1", PowerMHz: 2000},
	})

	var wg sync.WaitGroup
	var stop atomic.Bool
	var unknown atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
			for i := 0; i < perWorker; i++ {
				var err error
				var node string
				if i%2 == 0 {
					node, err = r.Dispatch("app", rng.Float64())
				} else {
					node, err = r.DispatchBalanced("app")
				}
				switch {
				case err == nil && node == "":
					r.Drain("app", 1)
				case errors.Is(err, ErrUnknownApp):
					unknown.Add(1)
				case errors.Is(err, ErrRejected):
				case err != nil:
					t.Errorf("unexpected dispatch error: %v", err)
					return
				case node != "n0" && node != "n1" && node != "n2":
					t.Errorf("dispatch returned unknown node %q", node)
					return
				}
			}
		}(uint64(w) + 1)
	}

	// Control plane: single-app updates, whole-cycle publishes, removal
	// and re-registration, and snapshot reads, all concurrent with the
	// dispatchers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < controlRounds && !stop.Load(); i++ {
			switch i % 5 {
			case 0:
				r.Update("app", []Instance{
					{Node: "n0", PowerMHz: 1000},
					{Node: "n1", PowerMHz: 2000},
					{Node: "n2", PowerMHz: 500},
				})
			case 1:
				r.Publish(map[string][]Instance{
					"app":   {{Node: "n0", PowerMHz: 1500}, {Node: "n1", PowerMHz: 1500}},
					"other": {{Node: "n2", PowerMHz: 800}},
				})
			case 2:
				r.Remove("app")
			case 3:
				r.Update("app", []Instance{{Node: "n1", PowerMHz: 2000}})
			case 4:
				snap := r.Snapshot()
				for name, st := range snap {
					sum := 0
					for _, n := range st.PerNode {
						sum += n
					}
					if sum != st.Dispatched {
						t.Errorf("snapshot %q: sum(PerNode)=%d, Dispatched=%d", name, sum, st.Dispatched)
						return
					}
				}
			}
		}
	}()

	wg.Wait()
	stop.Store(true)

	// Removal windows exist by construction; every other outcome is
	// accounted. Re-register to read the final stats.
	st, ok := r.StatsFor("app")
	if !ok {
		r.Update("app", nil)
		st, _ = r.StatsFor("app")
	}
	total := int64(st.Dispatched+st.Rejected) + unknown.Load()
	if qt := int64(st.QueuedTotal); qt > 0 {
		total += qt
	}
	if st.QueueDepth < 0 {
		t.Errorf("QueueDepth = %d, negative", st.QueueDepth)
	}
	// Stats reset on the Remove rounds, so only an upper bound holds.
	if total > int64(workers*perWorker) {
		t.Errorf("accounted outcomes %d exceed issued requests %d", total, workers*perWorker)
	}
}

// TestBalancedProportions checks that power-of-two-choices preserves the
// paper's contract: long-run per-node traffic shares track the
// allocated-power proportions. p2c trades a little distribution skew
// for much lower short-term imbalance; the tolerance below bounds that
// skew.
func TestBalancedProportions(t *testing.T) {
	r := New(0)
	weights := map[string]float64{"n0": 3000, "n1": 1000, "n2": 2000}
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: weights["n0"]},
		{Node: "n1", PowerMHz: weights["n1"]},
		{Node: "n2", PowerMHz: weights["n2"]},
	})

	const n = 200000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		node, err := r.DispatchBalanced("app")
		if err != nil {
			t.Fatalf("DispatchBalanced: %v", err)
		}
		counts[node]++
	}

	var totalPower float64
	for _, w := range weights {
		totalPower += w
	}
	for node, w := range weights {
		want := w / totalPower
		got := float64(counts[node]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("node %s share = %.4f, want %.4f ± 0.03 (counts %v)", node, got, want, counts)
		}
	}

	// The stats views must agree with the observed counts exactly.
	st, _ := r.StatsFor("app")
	if st.Dispatched != n {
		t.Fatalf("Dispatched = %d, want %d", st.Dispatched, n)
	}
	for node, c := range counts {
		if st.PerNode[node] != c {
			t.Errorf("PerNode[%s] = %d, want %d", node, st.PerNode[node], c)
		}
	}
}

// TestBalancedSmoothing demonstrates what p2c buys: over short windows,
// the maximum per-node overshoot relative to its fair share is lower
// with two choices than with independent weighted sampling.
func TestBalancedSmoothing(t *testing.T) {
	instances := []Instance{
		{Node: "n0", PowerMHz: 1000},
		{Node: "n1", PowerMHz: 1000},
		{Node: "n2", PowerMHz: 1000},
		{Node: "n3", PowerMHz: 1000},
	}
	const window = 100
	const windows = 200

	maxOvershoot := func(balanced bool) float64 {
		r := New(0)
		r.Update("app", instances)
		rng := rand.New(rand.NewPCG(42, 99))
		worst := 0.0
		for w := 0; w < windows; w++ {
			counts := map[string]int{}
			for i := 0; i < window; i++ {
				var node string
				var err error
				if balanced {
					node, err = r.DispatchBalanced("app")
				} else {
					node, err = r.Dispatch("app", rng.Float64())
				}
				if err != nil {
					t.Fatalf("dispatch: %v", err)
				}
				counts[node]++
			}
			fair := float64(window) / float64(len(instances))
			for _, c := range counts {
				if over := (float64(c) - fair) / fair; over > worst {
					worst = over
				}
			}
		}
		return worst
	}

	plain := maxOvershoot(false)
	p2c := maxOvershoot(true)
	if p2c >= plain {
		t.Errorf("p2c worst-window overshoot %.3f not below plain sampling's %.3f", p2c, plain)
	}
}

// TestDeterministicPickIdentity locks the Dispatch(app, pick) mapping:
// the cumulative-table binary search must reproduce the original
// implementation's pick→instance function bit for bit, boundary
// behavior included.
func TestDeterministicPickIdentity(t *testing.T) {
	r := New(0)
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: 1000},
		{Node: "n1", PowerMHz: 3000},
		{Node: "n2", PowerMHz: 1000},
	})
	cases := []struct {
		pick float64
		want string
	}{
		{-1, "n0"},   // clamped to 0
		{0, "n0"},    // target 0 < cum[0]
		{0.19, "n0"}, // 950 < 1000
		{0.2, "n1"},  // exact boundary 1000 steps past n0
		{0.5, "n1"},
		{0.79, "n1"}, // 3950 < 4000
		{0.8, "n2"},  // exact boundary 4000 steps past n1
		{0.99, "n2"},
		{1.0, "n2"}, // clamped to 0.999999
		{2.5, "n2"}, // clamped
	}
	for _, tc := range cases {
		node, err := r.Dispatch("app", tc.pick)
		if err != nil || node != tc.want {
			t.Errorf("Dispatch(pick=%v) = %q, %v; want %q", tc.pick, node, err, tc.want)
		}
	}
}

// TestDispatchBatch covers the bulk dataplane entry point: per-node
// tallies must sum to the batch size, stats must account the whole
// batch, and queue/reject behavior must match n single dispatches.
func TestDispatchBatch(t *testing.T) {
	r := New(2)
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: 3000},
		{Node: "n1", PowerMHz: 1000},
	})

	res, err := r.DispatchBatch("app", 10000)
	if err != nil {
		t.Fatalf("DispatchBatch: %v", err)
	}
	if res.Dispatched != 10000 || res.Queued != 0 || res.Rejected != 0 {
		t.Fatalf("batch result = %+v, want 10000 dispatched", res)
	}
	sum := 0
	for _, n := range res.PerNode {
		sum += n
	}
	if sum != res.Dispatched {
		t.Fatalf("sum(PerNode) = %d, want %d", sum, res.Dispatched)
	}
	share := float64(res.PerNode["n0"]) / float64(res.Dispatched)
	if math.Abs(share-0.75) > 0.03 {
		t.Errorf("n0 share = %.4f, want 0.75 ± 0.03", share)
	}
	st, _ := r.StatsFor("app")
	if st.Dispatched != 10000 {
		t.Errorf("Stats.Dispatched = %d, want 10000", st.Dispatched)
	}

	// No capacity: the batch fills the queue then rejects the rest.
	r.Update("starved", nil)
	res, err = r.DispatchBatch("starved", 5)
	if err != nil {
		t.Fatalf("DispatchBatch(starved): %v", err)
	}
	if res.Dispatched != 0 || res.Queued != 2 || res.Rejected != 3 {
		t.Fatalf("starved batch = %+v, want queued=2 rejected=3", res)
	}
	st, _ = r.StatsFor("starved")
	if st.QueueDepth != 2 || st.QueuedTotal != 2 || st.Rejected != 3 {
		t.Fatalf("starved stats = %+v, want QueueDepth=2 QueuedTotal=2 Rejected=3", st)
	}

	// Unknown app and degenerate n.
	if _, err := r.DispatchBatch("ghost", 10); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("DispatchBatch(ghost) err = %v, want ErrUnknownApp", err)
	}
	res, err = r.DispatchBatch("app", 0)
	if err != nil || res.Dispatched != 0 {
		t.Errorf("DispatchBatch(n=0) = %+v, %v; want empty result", res, err)
	}
}

// TestDispatchBatchAllocs pins DispatchBatch's allocations per call as
// independent of the batch size: the result map is allocated once, and
// no request — dispatched, queued or rejected — allocates on its own.
func TestDispatchBatchAllocs(t *testing.T) {
	r := New(2)
	r.Update("app", []Instance{{Node: "n0", PowerMHz: 3000}, {Node: "n1", PowerMHz: 1000}})
	r.Update("starved", nil)
	allocs := func(app string, n int) float64 {
		return testing.AllocsPerRun(100, func() {
			res, err := r.DispatchBatch(app, n)
			if err != nil {
				t.Fatalf("DispatchBatch(%s, %d): %v", app, n, err)
			}
			if app == "starved" && (res.Queued != 2 || res.Rejected != n-2) {
				t.Fatalf("DispatchBatch(starved, %d) = %+v, want 2 queued, %d rejected", n, res, n-2)
			}
			r.Drain(app, 2)
		})
	}
	for _, app := range []string{"app", "starved"} {
		if small, big := allocs(app, 10), allocs(app, 1000); big > small {
			t.Errorf("DispatchBatch(%s): %.1f allocs at n=1000, %.1f at n=10; want no growth with n", app, big, small)
		}
	}
}

// TestPublishSingleSwap checks Publish registers new applications and
// replaces listed tables while leaving unlisted applications intact.
func TestPublishSingleSwap(t *testing.T) {
	r := New(0)
	r.Update("keep", []Instance{{Node: "n0", PowerMHz: 100}})
	r.Update("swap", []Instance{{Node: "n0", PowerMHz: 100}})
	r.Publish(map[string][]Instance{
		"swap": {{Node: "n1", PowerMHz: 100}},
		"new":  {{Node: "n2", PowerMHz: 100}},
	})

	for app, want := range map[string]string{"keep": "n0", "swap": "n1", "new": "n2"} {
		node, err := r.Dispatch(app, 0.5)
		if err != nil || node != want {
			t.Errorf("Dispatch(%s) = %q, %v; want %q", app, node, err, want)
		}
	}
	if got := r.Apps(); len(got) != 3 {
		t.Errorf("Apps() = %v, want 3 entries", got)
	}
}

// TestStatsSurviveRepublish locks the invariant the daemon depends on:
// placement changes swap routing tables but never reset the lifetime
// counters operators graph.
func TestStatsSurviveRepublish(t *testing.T) {
	r := New(4)
	r.Update("app", []Instance{{Node: "n0", PowerMHz: 100}})
	for i := 0; i < 50; i++ {
		if _, err := r.Dispatch("app", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 10; cycle++ {
		r.Publish(map[string][]Instance{"app": {
			{Node: "n0", PowerMHz: 100},
			{Node: fmt.Sprintf("n%d", cycle%3+1), PowerMHz: 50},
		}})
	}
	st, _ := r.StatsFor("app")
	if st.Dispatched != 50 {
		t.Fatalf("Dispatched = %d after republishes, want 50", st.Dispatched)
	}
	if st.PerNode["n0"] != 50 {
		t.Fatalf("PerNode[n0] = %d after republishes, want 50", st.PerNode["n0"])
	}
}
