package metrics

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestRingBelowCapacity(t *testing.T) {
	r := NewRing[int](4)
	if r.Len() != 0 || r.Cap() != 4 {
		t.Fatalf("empty ring: Len=%d Cap=%d", r.Len(), r.Cap())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring reported ok")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	got := r.Snapshot()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	if last, ok := r.Last(); !ok || last != 3 {
		t.Fatalf("Last = %d, %v; want 3, true", last, ok)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 7; i++ {
		r.Push(i)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Snapshot()
	want := []int{5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	if last, ok := r.Last(); !ok || last != 7 {
		t.Fatalf("Last = %d, %v; want 7, true", last, ok)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing[string](0)
	if r.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamp to 1", r.Cap())
	}
	r.Push("a")
	r.Push("b")
	if last, _ := r.Last(); last != "b" {
		t.Fatalf("Last = %q, want b", last)
	}
	if got := r.Snapshot(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Snapshot = %v, want [b]", got)
	}
}

// TestRingMatchesSliceModel pushes random sequences, most of them long
// enough to wrap, into rings of random capacity and checks Len, Cap,
// Last and Snapshot after every push against a slice that keeps the
// last capacity values. The backing array must never outgrow the
// capacity.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.IntN(40)
		r := NewRing[int](capacity)
		var model []int
		for i, pushes := 0, rng.IntN(4*capacity); i < pushes; i++ {
			v := rng.Int()
			r.Push(v)
			model = append(model, v)
			if len(model) > capacity {
				model = model[1:]
			}
			if r.Len() != len(model) || r.Cap() != capacity {
				t.Fatalf("cap %d after %d pushes: Len %d, Cap %d; want %d, %d", capacity, i+1, r.Len(), r.Cap(), len(model), capacity)
			}
			if last, ok := r.Last(); !ok || last != model[len(model)-1] {
				t.Fatalf("cap %d after %d pushes: Last = %d, %v; want %d", capacity, i+1, last, ok, model[len(model)-1])
			}
			if got := r.Snapshot(); !slices.Equal(got, model) {
				t.Fatalf("cap %d after %d pushes: Snapshot = %v, want %v", capacity, i+1, got, model)
			}
			if cap(r.buf) > capacity {
				t.Fatalf("cap %d after %d pushes: backing array holds %d slots", capacity, i+1, cap(r.buf))
			}
		}
	}
}
