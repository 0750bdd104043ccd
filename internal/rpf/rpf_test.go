package rpf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		name string
		in   float64
		want float64
	}{
		{"nan", math.NaN(), MinUtility},
		{"below", -2e9, MinUtility},
		{"above", 2, MaxUtility},
		{"inside", 0.5, 0.5},
		{"zero", 0, 0},
		{"negative inside", -3, -3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.in); got != tt.want {
				t.Fatalf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestNewVectorSorts(t *testing.T) {
	v := NewVector([]float64{0.5, -1, 0.2})
	want := Vector{-1, 0.2, 0.5}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("NewVector = %v, want %v", v, want)
		}
	}
}

func TestVectorCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want int
	}{
		{"equal", Vector{0.1, 0.2}, Vector{0.1, 0.2}, 0},
		{"worse min", Vector{0.0, 0.9}, Vector{0.1, 0.2}, -1},
		{"better min", Vector{0.2, 0.2}, Vector{0.1, 0.9}, 1},
		{"tie on min, second decides", Vector{0.1, 0.2}, Vector{0.1, 0.3}, -1},
		{"prefix equal, shorter better", Vector{0.1}, Vector{0.1, 0.3}, 1},
		{"empty vs empty", Vector{}, Vector{}, 0},
		{"empty beats nonempty", Vector{}, Vector{0.9}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Compare(tt.a); got != -tt.want {
				t.Fatalf("Compare(%v, %v) = %d, want %d (antisymmetry)", tt.b, tt.a, got, -tt.want)
			}
		})
	}
}

func TestVectorMaxMinSemantics(t *testing.T) {
	// The paper's Scenario 2 choice: (0.65, 0.65) beats (0.6, 0.7).
	p1 := NewVector([]float64{0.65, 0.65})
	p2 := NewVector([]float64{0.7, 0.6})
	if !p2.Less(p1) {
		t.Fatal("max-min order: (0.6,0.7) should be worse than (0.65,0.65)")
	}
}

func TestImprovesOn(t *testing.T) {
	base := NewVector([]float64{0.5, 0.7})
	if base.ImprovesOn(base, 1e-9) {
		t.Fatal("vector improves on itself")
	}
	better := NewVector([]float64{0.55, 0.7})
	if !better.ImprovesOn(base, 0.01) {
		t.Fatal("clear improvement not detected")
	}
	if better.ImprovesOn(base, 0.1) {
		t.Fatal("improvement below eps detected")
	}
	worseFirst := NewVector([]float64{0.4, 2.0})
	if worseFirst.ImprovesOn(base, 0.01) {
		t.Fatal("worse min coordinate treated as improvement")
	}
}

// Property: Compare is a total order consistent with sorting, and
// transitive on random triples.
func TestQuickCompareTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() Vector {
		n := 1 + rng.Intn(5)
		us := make([]float64, n)
		for i := range us {
			us[i] = math.Round(rng.Float64()*10) / 10
		}
		return NewVector(us)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b, c := gen(), gen(), gen()
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// Property: raising any single coordinate never makes a vector worse.
func TestQuickMonotone(t *testing.T) {
	f := func(raw []float64, idx uint8, bump float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				raw[i] = 0
			}
		}
		v := NewVector(raw)
		i := int(idx) % len(raw)
		raised := make([]float64, len(raw))
		copy(raised, raw)
		raised[i] += math.Abs(bump)
		if math.IsNaN(raised[i]) || math.IsInf(raised[i], 0) {
			return true
		}
		w := NewVector(raised)
		return v.Compare(w) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorMinEmpty(t *testing.T) {
	if got := (Vector{}).Min(); got != MaxUtility {
		t.Fatalf("empty Min = %v, want MaxUtility", got)
	}
	if got := (Vector{-0.5, 0.5}).Min(); got != -0.5 {
		t.Fatalf("Min = %v, want -0.5", got)
	}
}

func TestNewVectorIsSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := NewVector(raw)
		return sort.Float64sAreSorted(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantize(t *testing.T) {
	v := Vector{-0.031, 0.0, 0.019, 0.021, 0.7}
	q := v.Quantize(0.02)
	want := Vector{-0.04, 0.0, 0.0, 0.02, 0.7}
	for i := range want {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Fatalf("Quantize = %v, want %v", q, want)
		}
	}
	// Nonpositive step is the identity.
	if got := v.Quantize(0); got.Compare(v) != 0 {
		t.Fatalf("Quantize(0) = %v, want identity", got)
	}
}

// Property: quantization is idempotent, order-preserving (weakly), and
// never increases a coordinate.
func TestQuickQuantizeProperties(t *testing.T) {
	f := func(raw []float64, stepRaw float64) bool {
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = 0
			}
		}
		step := 0.001 + math.Mod(math.Abs(stepRaw), 0.5)
		if math.IsNaN(step) {
			step = 0.02
		}
		v := NewVector(raw)
		q := v.Quantize(step)
		for i := range q {
			if q[i] > v[i]+1e-12 {
				return false // floor must not round up
			}
			if v[i]-q[i] > step+1e-9 {
				return false // within one step
			}
		}
		qq := q.Quantize(step)
		for i := range q {
			if math.Abs(qq[i]-q[i]) > 1e-9 {
				return false // idempotent
			}
		}
		// Weak order preservation: a quantized vector never beats the
		// raw comparison direction.
		return q.Compare(v) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
