package router

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDispatchDuringSwaps hammers one application from many
// goroutines while the control loop concurrently swaps its placement, the
// scenario the live daemon creates every cycle. Run with -race. At the
// end the Stats counters must be internally consistent: every dispatch
// attempt is accounted for exactly once and the per-node counts sum to
// the dispatch total.
func TestConcurrentDispatchDuringSwaps(t *testing.T) {
	const (
		app        = "storefront"
		goroutines = 8
		perWorker  = 2000
		swaps      = 500
	)
	r := New(64)
	r.Update(app, []Instance{{Node: "node-0", PowerMHz: 1000}})

	placements := [][]Instance{
		{{Node: "node-0", PowerMHz: 1000}},
		{{Node: "node-0", PowerMHz: 600}, {Node: "node-1", PowerMHz: 1400}},
		{{Node: "node-1", PowerMHz: 500}, {Node: "node-2", PowerMHz: 500}, {Node: "node-3", PowerMHz: 2000}},
		{{Node: "node-2", PowerMHz: 3000}},
	}

	var wg sync.WaitGroup
	var dispatched, queued, rejected [goroutines]int
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				node, err := r.Dispatch(app, rng.Float64())
				switch {
				case err == nil && node != "":
					dispatched[w]++
				case err == nil:
					queued[w]++
				case errors.Is(err, ErrRejected):
					rejected[w]++
				default:
					t.Errorf("worker %d: unexpected error: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			r.Update(app, placements[i%len(placements)])
			if i%10 == 0 {
				r.Drain(app, 8)
			}
		}
	}()
	wg.Wait()

	var wantDispatched, wantQueued, wantRejected int
	for w := 0; w < goroutines; w++ {
		wantDispatched += dispatched[w]
		wantQueued += queued[w]
		wantRejected += rejected[w]
	}
	if total := wantDispatched + wantQueued + wantRejected; total != goroutines*perWorker {
		t.Fatalf("attempts accounted = %d, want %d", total, goroutines*perWorker)
	}

	st, ok := r.StatsFor(app)
	if !ok {
		t.Fatal("StatsFor lost the application")
	}
	if st.Dispatched != wantDispatched {
		t.Errorf("Stats.Dispatched = %d, want %d", st.Dispatched, wantDispatched)
	}
	if st.Rejected != wantRejected {
		t.Errorf("Stats.Rejected = %d, want %d", st.Rejected, wantRejected)
	}
	perNode := 0
	for _, n := range st.PerNode {
		perNode += n
	}
	if perNode != st.Dispatched {
		t.Errorf("sum(PerNode) = %d, want Dispatched = %d", perNode, st.Dispatched)
	}
	if st.QueueDepth < 0 {
		t.Errorf("Stats.QueueDepth = %d, negative", st.QueueDepth)
	}

	// The snapshot view must agree with the per-app view.
	snap := r.Snapshot()
	if got := snap[app].Dispatched; got != st.Dispatched {
		t.Errorf("Snapshot dispatched = %d, want %d", got, st.Dispatched)
	}
}

// TestConcurrentMultiApp exercises independent applications updated and
// dispatched concurrently, including removal and re-registration.
func TestConcurrentMultiApp(t *testing.T) {
	r := New(16)
	apps := []string{"a", "b", "c", "d"}
	for _, name := range apps {
		r.Update(name, []Instance{{Node: "n0", PowerMHz: 100}})
	}
	var wg sync.WaitGroup
	for w, name := range apps {
		wg.Add(1)
		go func(w int, name string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1500; i++ {
				switch i % 50 {
				case 10:
					r.Remove(name)
				case 11:
					r.Update(name, []Instance{
						{Node: fmt.Sprintf("n%d", i%3), PowerMHz: float64(100 + i)},
					})
				default:
					// Unknown-app errors are expected in the removal window.
					_, _ = r.Dispatch(name, rng.Float64())
				}
			}
		}(w, name)
	}
	wg.Wait()
	for _, name := range r.Apps() {
		if _, ok := r.Instances(name); !ok {
			t.Errorf("app %q listed but has no instances entry", name)
		}
	}
}

// TestConcurrentDispatchBatchDuringSwaps races batches, single
// dispatches and Drains against Publish swaps that move the application
// between placements, one of them without capacity. Run with -race. The
// lifetime Stats must equal the sum of the tallies the calls returned,
// the queue must never hold more than its cap, and every per-node count
// must name a node of some published table.
func TestConcurrentDispatchBatchDuringSwaps(t *testing.T) {
	const (
		app      = "storefront"
		queueCap = 32
		workers  = 6
		calls    = 400
		swaps    = 120
	)
	r := New(queueCap)
	placements := [][]Instance{
		{{Node: "node-0", PowerMHz: 1000}},
		{{Node: "node-0", PowerMHz: 600}, {Node: "node-1", PowerMHz: 1400}},
		nil, // no capacity: batches fill the queue and reject the rest
		{{Node: "node-1", PowerMHz: 500}, {Node: "node-2", PowerMHz: 500}, {Node: "node-3", PowerMHz: 2000}},
	}
	published := map[string]bool{}
	for _, p := range placements {
		for _, in := range p {
			published[in.Node] = true
		}
	}
	r.Publish(map[string][]Instance{app: placements[0]})

	type tally struct{ dispatched, queued, rejected, drained int }
	tallies := make([]tally, workers+1) // the last is the swapper's
	// The swapper starts once every worker runs and sends one batch of
	// its own to each table it publishes; workers keep calling until it
	// is through, so every placement serves calls and every swap lands
	// among them.
	var swapped atomic.Bool
	var running, wg sync.WaitGroup
	running.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			running.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tl := &tallies[w]
			for i := 0; i < calls || !swapped.Load(); i++ {
				switch i % 4 {
				case 0, 1: // batch
					res, err := r.DispatchBatch(app, 2+rng.Intn(200))
					if err != nil {
						t.Errorf("worker %d: DispatchBatch: %v", w, err)
						return
					}
					sum := 0
					for node, c := range res.PerNode {
						sum += c
						if !published[node] {
							t.Errorf("worker %d: batch counted %q, which no published table holds", w, node)
						}
					}
					if sum != res.Dispatched {
						t.Errorf("worker %d: sum(PerNode) = %d, Dispatched = %d", w, sum, res.Dispatched)
					}
					tl.dispatched += res.Dispatched
					tl.queued += res.Queued
					tl.rejected += res.Rejected
				case 2: // single
					node, err := r.DispatchBalanced(app)
					switch {
					case err == nil && node != "":
						tl.dispatched++
					case err == nil:
						tl.queued++
					case errors.Is(err, ErrRejected):
						tl.rejected++
					default:
						t.Errorf("worker %d: DispatchBalanced: %v", w, err)
						return
					}
				case 3:
					tl.drained += r.Drain(app, 1+rng.Intn(8))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer swapped.Store(true)
		running.Wait()
		for i := 1; i <= swaps; i++ {
			r.Publish(map[string][]Instance{app: placements[i%len(placements)]})
			res, err := r.DispatchBatch(app, 100)
			if err != nil {
				t.Errorf("swapper: DispatchBatch: %v", err)
				return
			}
			tl := &tallies[workers]
			tl.dispatched += res.Dispatched
			tl.queued += res.Queued
			tl.rejected += res.Rejected
			if st, _ := r.StatsFor(app); st.QueueDepth > queueCap {
				t.Errorf("QueueDepth = %d mid-run, above the cap %d", st.QueueDepth, queueCap)
			}
		}
	}()
	wg.Wait()

	var want tally
	for _, tl := range tallies {
		want.dispatched += tl.dispatched
		want.queued += tl.queued
		want.rejected += tl.rejected
		want.drained += tl.drained
	}
	st, _ := r.StatsFor(app)
	if st.Dispatched != want.dispatched || st.QueuedTotal != want.queued || st.Rejected != want.rejected {
		t.Errorf("Stats dispatched/queued/rejected = %d/%d/%d, calls returned %d/%d/%d",
			st.Dispatched, st.QueuedTotal, st.Rejected, want.dispatched, want.queued, want.rejected)
	}
	if st.QueueDepth != want.queued-want.drained || st.QueueDepth > queueCap {
		t.Errorf("QueueDepth = %d, want queued %d − drained %d, at most %d", st.QueueDepth, want.queued, want.drained, queueCap)
	}
	if want.queued == 0 || want.rejected == 0 {
		t.Errorf("queued %d, rejected %d: the no-capacity placement was never exercised", want.queued, want.rejected)
	}
	for node := range st.PerNode {
		if !published[node] {
			t.Errorf("PerNode counts %q, which no published table holds", node)
		}
	}
}
