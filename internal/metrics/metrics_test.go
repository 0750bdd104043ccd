package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := new(Series)
	s.Add(0, 1)
	s.Add(10, 2)
	s.Add(20, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if v, ok := s.At(15); !ok || v != 2 {
		t.Fatalf("At(15) = %v, %v; want 2, true", v, ok)
	}
	if v, ok := s.At(20); !ok || v != 3 {
		t.Fatalf("At(20) = %v, %v; want 3, true", v, ok)
	}
	if _, ok := s.At(-1); ok {
		t.Fatal("At before first sample should be false")
	}
	pts := s.Points()
	pts[0].V = 99
	if s.Points()[0].V != 1 {
		t.Fatal("Points did not copy")
	}
}

func TestSeriesMeanEmpty(t *testing.T) {
	if got := new(Series).Mean(); got != 0 {
		t.Fatalf("empty Mean = %v", got)
	}
}

func TestDownsample(t *testing.T) {
	s := new(Series)
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	pts := s.Downsample(5)
	if len(pts) != 5 {
		t.Fatalf("Downsample len = %d, want 5", len(pts))
	}
	if pts[0].T != 0 || pts[4].T != 99 {
		t.Fatalf("Downsample endpoints = %v, %v", pts[0], pts[4])
	}
	// Fewer points than requested: unchanged.
	s2 := new(Series)
	s2.Add(1, 1)
	if got := s2.Downsample(10); len(got) != 1 {
		t.Fatalf("small Downsample len = %d", len(got))
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize([]float64{4, 1, 3, 2})
	if want := (Summary{Min: 1, P25: 1.75, Median: 2.5, P75: 3.25, Max: 4}); sum != want {
		t.Fatalf("Summary = %+v, want %+v", sum, want)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("empty Summarize = %+v", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	tests := []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40}, {0.1, 14},
	}
	for _, tt := range tests {
		if got := Quantile(v, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty Quantile = %v", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = 0
			}
		}
		sort.Float64s(raw)
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(raw, a), Quantile(raw, b)
		return qa <= qb+1e-9 && qa >= raw[0]-1e-9 && qb <= raw[len(raw)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("policy", "ontime", "changes")
	tb.AddRow("FCFS", 0.403, 0)
	tb.AddRow("EDF", 0.55, 1234)
	out := tb.String()
	if !strings.Contains(out, "FCFS") || !strings.Contains(out, "0.403") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4 (header, sep, 2 rows)", len(lines))
	}
	// All lines align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header/separator width mismatch:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{3.14159, "3.142"},
		{math.NaN(), "NaN"},
		{-2, "-2"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.in); got != tt.want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("suspend", 2)
	c.Inc("migrate", 1)
	c.Inc("suspend", 3)
	if c.Get("suspend") != 5 || c.Get("migrate") != 1 || c.Get("absent") != 0 {
		t.Fatalf("counts wrong: suspend=%d migrate=%d", c.Get("suspend"), c.Get("migrate"))
	}
	if c.Total() != 6 {
		t.Fatalf("Total = %d", c.Total())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "migrate" || names[1] != "suspend" {
		t.Fatalf("Names = %v", names)
	}
}
