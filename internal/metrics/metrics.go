// Package metrics provides the measurement primitives shared by the
// simulator and the live daemon: append-only time series sampled once
// per control cycle, named action counters, distribution summaries,
// fixed-width text tables matching the rows and series the paper's
// figures report, and a generic fixed-capacity ring buffer (Ring).
//
// The experiment runners record series and print tables from them; the
// daemon uses Counter for lifetime placement-action totals and Ring to
// retain bounded per-cycle history and completed-job results for its
// /v1/metrics endpoint. Nothing here is safe for concurrent use on its
// own; callers (the control loop, the daemon's mutex) serialize access.
// The daemon declares that contract on its fields of these types with
// // dynplace:guardedby mu annotations, which the lockguard analyzer in
// internal/analysis enforces.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one time-series sample.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	name   string
	points []Point
}

// NewSeries creates a named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.points = append(s.points, Point{T: t, V: v}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// At returns the last value at or before t, or (0, false) if none.
func (s *Series) At(t float64) (float64, bool) {
	idx := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if idx == 0 {
		return 0, false
	}
	return s.points[idx-1].V, true
}

// Mean returns the unweighted mean of all samples (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.points {
		sum += p.V
	}
	return sum / float64(len(s.points))
}

// Downsample returns at most n points, evenly spaced over the series,
// always keeping the first and last — for compact figure printouts.
func (s *Series) Downsample(n int) []Point {
	if n <= 0 || len(s.points) <= n {
		return s.Points()
	}
	out := make([]Point, 0, n)
	step := float64(len(s.points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.points[int(math.Round(float64(i)*step))])
	}
	return out
}

// Summary describes a sample distribution.
type Summary struct {
	Count                int
	Min, Max, Mean       float64
	P25, Median, P75     float64
	P10, P90, StdDev     float64
	SumOfSquaredResidual float64
}

// Summarize computes distribution statistics. An empty input returns the
// zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return Summary{
		Count:                len(v),
		Min:                  v[0],
		Max:                  v[len(v)-1],
		Mean:                 mean,
		P10:                  Quantile(v, 0.10),
		P25:                  Quantile(v, 0.25),
		Median:               Quantile(v, 0.50),
		P75:                  Quantile(v, 0.75),
		P90:                  Quantile(v, 0.90),
		StdDev:               math.Sqrt(ss / float64(len(v))),
		SumOfSquaredResidual: ss,
	}
}

// Quantile returns the q-quantile (0..1) of sorted values using linear
// interpolation. The input must be sorted ascending.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	f := pos - float64(lo)
	return sorted[lo] + f*(sorted[hi]-sorted[lo])
}

// Table renders fixed-width text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are stringified with %v and floats get
// compact formatting.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case float64:
			row[i] = FormatFloat(x)
		case float32:
			row[i] = FormatFloat(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: integers without decimals,
// others with up to 3 significant decimals.
func FormatFloat(x float64) string {
	if math.IsNaN(x) {
		return "NaN"
	}
	if x == math.Trunc(x) && math.Abs(x) < 1e12 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.3f", x)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Counter accumulates named integer counts deterministically. It is
// not safe for concurrent use; the caller serializes writers against
// readers (the daemon increments and reads only under its control-loop
// mutex, including the /v1/metrics/prom collect callbacks — its fields of
// this type carry // dynplace:guardedby mu annotations checked by the
// lockguard analyzer). Hot paths that cannot afford a lock want
// obs.Counter instead.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int)} }

// Inc adds n to the named count.
func (c *Counter) Inc(name string, n int) { c.counts[name] += n }

// Set overwrites the named count — used when restoring lifetime totals
// from a recovered snapshot.
func (c *Counter) Set(name string, n int) { c.counts[name] = n }

// Get returns the named count.
func (c *Counter) Get(name string) int { return c.counts[name] }

// Total sums all counts.
func (c *Counter) Total() int {
	var t int
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Names returns the count names in sorted order.
func (c *Counter) Names() []string {
	names := make([]string, 0, len(c.counts))
	for k := range c.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
