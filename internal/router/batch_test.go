package router

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// randomTable registers app on r with k instances of random power:
// mostly whole MHz up to 5 000, some tiny fractional ones so shares
// span several orders of magnitude. It returns the instances.
func randomTable(r *Router, app string, k int, rng *rand.Rand) []Instance {
	ins := make([]Instance, k)
	for i := range ins {
		p := float64(1 + rng.IntN(5000))
		if rng.IntN(4) == 0 {
			p = 1 + 10*rng.Float64()
		}
		ins[i] = Instance{Node: fmt.Sprintf("n%d", i), PowerMHz: p}
	}
	r.Update(app, ins)
	return ins
}

// batchSize draws a batch size from 2 to 10⁶, weighted toward the small
// batches where rounding decides most of the split.
func batchSize(rng *rand.Rand) int {
	switch rng.IntN(3) {
	case 0:
		return 2 + rng.IntN(3)
	case 1:
		return 2 + rng.IntN(100)
	default:
		return 2 + rng.IntN(1_000_000-1)
	}
}

// TestDispatchBatchSplit checks the batch split's contract over random
// weights (1–64 instances) and batch sizes (2–10⁶): each call's counts
// sum to n and each is within one request of its exact share n·pᵢ; and
// summed over a generation's batches, each instance stays close to its
// exact share of the generation. The per-call bound holds by
// construction (floor or ceiling of the share). After some call
// sequences no split keeps both bounds within one request, so the
// generation bound asserted is 1.5 requests; the largest deviation
// seen over about 1.6 million random batches of this shape was 1.02.
func TestDispatchBatchSplit(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		r := New(0)
		k := 1 + rng.IntN(64)
		ins := randomTable(r, "app", k, rng)
		var total float64
		for _, in := range ins {
			total += in.PowerMHz
		}
		gen := 0
		for b := 0; b < 40; b++ {
			n := batchSize(rng)
			res, err := r.DispatchBatch("app", n)
			if err != nil {
				t.Fatal(err)
			}
			gen += n
			sum := 0
			for _, c := range res.PerNode {
				sum += c
			}
			if sum != n || res.Dispatched != n {
				t.Fatalf("trial %d batch %d: counts sum to %d, Dispatched %d; want %d", trial, b, sum, res.Dispatched, n)
			}
			st, _ := r.StatsFor("app")
			for _, in := range ins {
				if d := math.Abs(float64(res.PerNode[in.Node]) - float64(n)*in.PowerMHz/total); d >= 1 {
					t.Fatalf("trial %d batch %d (n=%d, k=%d): %s got %d, %.3f from its share", trial, b, n, k, in.Node, res.PerNode[in.Node], d)
				}
				d := math.Abs(float64(st.PerNode[in.Node]) - float64(gen)*in.PowerMHz/total)
				if d >= 1.5 {
					t.Fatalf("trial %d batch %d (k=%d): %s holds %d of %d, %.3f from its share", trial, b, k, in.Node, st.PerNode[in.Node], gen, d)
				}
				worst = max(worst, d)
			}
		}
	}
	t.Logf("largest generation deviation: %.4f requests", worst)
}

// TestDispatchBatchSpread checks that repeated small batches spread:
// 1 000 batches of two on four equal instances give each 500 ± 1, where
// a split that restarted its rounding every call would send every pair
// to the same two instances.
func TestDispatchBatchSpread(t *testing.T) {
	r := New(0)
	r.Update("app", []Instance{
		{Node: "n0", PowerMHz: 1000}, {Node: "n1", PowerMHz: 1000},
		{Node: "n2", PowerMHz: 1000}, {Node: "n3", PowerMHz: 1000},
	})
	for i := 0; i < 1000; i++ {
		if _, err := r.DispatchBatch("app", 2); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := r.StatsFor("app")
	for node, c := range st.PerNode {
		if c < 499 || c > 501 {
			t.Errorf("%s got %d of 2 000, want 500 ± 1 (%v)", node, c, st.PerNode)
		}
	}
	if len(st.PerNode) != 4 {
		t.Errorf("PerNode = %v, want all four instances", st.PerNode)
	}
}

// TestDispatchBatchDeterministic checks that the split depends only on
// the call sequence: replaying the same batches and republishes on a
// fresh router reproduces every per-node count.
func TestDispatchBatchDeterministic(t *testing.T) {
	run := func() []map[string]int {
		rng := rand.New(rand.NewPCG(3, 5))
		r := New(4)
		var out []map[string]int
		for gen := 0; gen < 5; gen++ {
			randomTable(r, "app", 1+rng.IntN(16), rng)
			for b := 0; b < 20; b++ {
				res, err := r.DispatchBatch("app", batchSize(rng))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res.PerNode)
			}
		}
		st, _ := r.StatsFor("app")
		return append(out, st.PerNode)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("the same call sequence split differently on a fresh router")
	}
}

// BenchmarkDispatchBatch is one DispatchBatch call of n requests on k
// instances of unequal power. A batch makes no per-request pick, so
// with -benchmem time, bytes and objects per op do not grow with n,
// only with k.
func BenchmarkDispatchBatch(b *testing.B) {
	for _, k := range []int{2, 64} {
		for _, n := range []int{10, 1000, 100_000} {
			b.Run(fmt.Sprintf("instances=%d/n=%d", k, n), func(b *testing.B) {
				r := New(0)
				ins := make([]Instance, k)
				for i := range ins {
					ins[i] = Instance{Node: fmt.Sprintf("n%d", i), PowerMHz: float64(1000 + 37*i)}
				}
				r.Update("app", ins)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.DispatchBatch("app", n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
