package router

import (
	"errors"
	"testing"

	"dynplace/internal/obs"
)

// TestInstrumentsCountOutcomes: with Instruments attached, Dispatch and
// DispatchBalanced count every call by outcome — dispatched, queued,
// rejected by overload protection, unknown application — and observe
// one latency sample per call. Without a Latency histogram the counters
// still count; with the instruments removed nothing is recorded.
func TestInstrumentsCountOutcomes(t *testing.T) {
	dispatchers := map[string]func(r *Router, app string) (string, error){
		"Dispatch":         func(r *Router, app string) (string, error) { return r.Dispatch(app, 0.5) },
		"DispatchBalanced": func(r *Router, app string) (string, error) { return r.DispatchBalanced(app) },
	}
	for name, dispatch := range dispatchers {
		for _, timed := range []bool{true, false} {
			ins := &Instruments{
				Dispatched: &obs.Counter{}, Queued: &obs.Counter{},
				Rejected: &obs.Counter{}, Unknown: &obs.Counter{},
			}
			if timed {
				ins.Latency = obs.NewHistogram([]float64{1e-6, 1e-3, 1})
			}
			r := New(2)
			r.Update("shop", []Instance{{Node: "n0", PowerMHz: 3000}, {Node: "n1", PowerMHz: 1000}})
			r.Update("idle", nil) // no capacity: requests park in the queue
			r.SetInstruments(ins)

			for i := 0; i < 5; i++ {
				if node, err := dispatch(r, "shop"); err != nil || node == "" {
					t.Fatalf("%s shop: node %q, err %v", name, node, err)
				}
			}
			for i := 0; i < 3; i++ {
				node, err := dispatch(r, "idle")
				if i < 2 && (err != nil || node != "") {
					t.Fatalf("%s idle #%d: node %q, err %v, want queued", name, i, node, err)
				}
				if i == 2 && !errors.Is(err, ErrRejected) {
					t.Fatalf("%s idle past the queue cap: err %v, want ErrRejected", name, err)
				}
			}
			if _, err := dispatch(r, "ghost"); !errors.Is(err, ErrUnknownApp) {
				t.Fatalf("%s ghost: err %v, want ErrUnknownApp", name, err)
			}

			got := [4]uint64{ins.Dispatched.Value(), ins.Queued.Value(), ins.Rejected.Value(), ins.Unknown.Value()}
			if want := [4]uint64{5, 2, 1, 1}; got != want {
				t.Errorf("%s (timed %v): dispatched/queued/rejected/unknown = %v, want %v", name, timed, got, want)
			}
			wantSamples := uint64(0)
			if timed {
				wantSamples = 9
			}
			if n := ins.Latency.Snapshot().Count; n != wantSamples {
				t.Errorf("%s (timed %v): %d latency samples, want %d", name, timed, n, wantSamples)
			}

			r.SetInstruments(nil)
			if _, err := dispatch(r, "shop"); err != nil {
				t.Fatal(err)
			}
			if n := ins.Dispatched.Value(); n != 5 {
				t.Errorf("%s: %d dispatches counted after the instruments were removed, want 5", name, n)
			}
		}
	}
}
