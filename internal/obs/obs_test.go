package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram count = %d", s.Count)
	}
	var ct *CycleTrace
	ct.Span("x")()
	ct.AddSpan("y", 0, 0)
	var tr *Tracer
	if got := tr.Begin(1, 0); got != nil {
		t.Fatalf("nil tracer Begin = %v", got)
	}
	tr.Finish(nil, "")
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("counter = %d, want 2", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	want := []uint64{2, 1, 1, 1} // le inclusive: 0.01 holds 0.005 and 0.01
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if math.Abs(s.Sum-5.565) > 1e-9 {
		t.Fatalf("sum = %v, want 5.565", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 10, 6))
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if math.Abs(s.Sum-float64(goroutines*per)*1e-5) > 1e-6 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "k", "v1")
	b := r.Counter("x_total", "help", "k", "v1")
	if a != b {
		t.Fatal("same series returned distinct counters")
	}
	c := r.Counter("x_total", "help", "k", "v2")
	if a == c {
		t.Fatal("distinct label values share a counter")
	}
	h1 := r.Histogram("h", "help", []float64{1, 2})
	h2 := r.Histogram("h", "help", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("same histogram series returned distinct instruments")
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "help")
	mustPanic("kind conflict", func() { r.Gauge("ok_total", "help") })
	mustPanic("bad name", func() { r.Counter("0bad", "help") })
	mustPanic("bad label", func() { r.Counter("y_total", "help", "0bad", "v") })
	mustPanic("odd labels", func() { r.Counter("z_total", "help", "k") })
	mustPanic("label key mismatch", func() { r.Counter("ok_total", "help", "k", "v") })
}

// TestExpositionGolden pins the encoder's exact output for a fixed
// registry and validates it with the promlint-style parser — the
// "make check" promlint gate.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	ok := r.Counter("demo_requests_total", "Requests by result.", "result", "ok")
	failed := r.Counter("demo_requests_total", "Requests by result.", "result", "error")
	for i := range 12 {
		ok.Inc()
		if i < 3 {
			failed.Inc()
		}
	}
	r.Gauge("demo_temperature_celsius", "Current temperature.").Set(21.5)
	r.GaugeFunc("demo_threads", "Active threads.", func() float64 { return 7 })
	h := r.Histogram("demo_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 2} {
		h.Observe(v)
	}
	r.GaugeSampler("demo_queue_depth", "Queue depth by app.", func() []Sample {
		return []Sample{
			{Labels: []string{"app", "alpha"}, Value: 4},
			{Labels: []string{"app", `we"ird\name`}, Value: 1},
		}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	exp, err := ParseExposition(got)
	if err != nil {
		t.Fatalf("golden exposition does not lint: %v", err)
	}
	if v, ok := exp.Value("demo_requests_total", "result", "ok"); !ok || v != 12 {
		t.Fatalf("demo_requests_total{result=ok} = %v, %v", v, ok)
	}
	if v, ok := exp.Value("demo_latency_seconds_count"); !ok || v != 5 {
		t.Fatalf("demo_latency_seconds_count = %v, %v", v, ok)
	}
	if v, ok := exp.Value("demo_latency_seconds_bucket", "le", "0.01"); !ok || v != 3 {
		t.Fatalf("bucket le=0.01 = %v, %v (cumulative)", v, ok)
	}
	if v, ok := exp.Value("demo_queue_depth", "app", `we"ird\name`); !ok || v != 1 {
		t.Fatalf("escaped label round-trip = %v, %v", v, ok)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "x 1\n",
		"duplicate series":    "# HELP x h\n# TYPE x counter\nx 1\nx 2\n",
		"negative counter":    "# HELP x h\n# TYPE x counter\nx -1\n",
		"bad metric name":     "# HELP 0x h\n# TYPE 0x counter\n0x 1\n",
		"unknown type":        "# HELP x h\n# TYPE x widget\nx 1\n",
		"unterminated labels": "# HELP x h\n# TYPE x gauge\nx{a=\"b\n",
		"non-cumulative histogram": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: parse accepted invalid exposition", name)
		}
	}
}

func TestParseExpositionValidInput(t *testing.T) {
	text := "# HELP up whether the target is up\n# TYPE up gauge\nup 1\n" +
		"# TYPE http_reqs counter\nhttp_reqs{code=\"200\",method=\"get\"} 1027\n"
	exp, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("http_reqs", "code", "200", "method", "get"); !ok || v != 1027 {
		t.Fatalf("http_reqs = %v, %v", v, ok)
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer(2)
	for cycle := int64(1); cycle <= 3; cycle++ {
		ct := tr.Begin(cycle, float64(cycle)*10)
		done := ct.Span("solve")
		done()
		ct.AddSpan("zone_solve", 0, 3*time.Millisecond)
		view := tr.Finish(ct, "")
		if view.Cycle != cycle || len(view.Spans) != 2 {
			t.Fatalf("view = %+v", view)
		}
	}
	if _, ok := tr.Cycle(1); ok {
		t.Fatal("cycle 1 should have been evicted from a capacity-2 ring")
	}
	v, ok := tr.Cycle(3)
	if !ok || v.Time != 30 {
		t.Fatalf("cycle 3 = %+v, %v", v, ok)
	}
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Cycle != 2 || recent[1].Cycle != 3 {
		t.Fatalf("recent = %+v", recent)
	}
	for _, s := range v.Spans {
		if s.Name == "zone_solve" && s.DurationMicros != 3000 {
			t.Fatalf("zone_solve duration = %d µs, want 3000", s.DurationMicros)
		}
	}
}

// TestTracerRingWraparound drives the trace ring through several full
// wraps: Recent must always return exactly the last `capacity` cycles
// oldest-first, Cycle must miss everything evicted and hit everything
// retained, and a recorded error must survive the wrap with its cycle.
func TestTracerRingWraparound(t *testing.T) {
	const capacity, cycles = 4, 11
	tr := NewTracer(capacity)
	for cycle := int64(1); cycle <= cycles; cycle++ {
		ct := tr.Begin(cycle, float64(cycle))
		ct.Span("solve")()
		errMsg := ""
		if cycle == 9 {
			errMsg = "solver exploded"
		}
		tr.Finish(ct, errMsg)

		recent := tr.Recent()
		want := int(cycle)
		if want > capacity {
			want = capacity
		}
		if len(recent) != want {
			t.Fatalf("after cycle %d: len(Recent) = %d, want %d", cycle, len(recent), want)
		}
		for i, v := range recent {
			if exp := cycle - int64(len(recent)) + 1 + int64(i); v.Cycle != exp {
				t.Fatalf("after cycle %d: Recent[%d].Cycle = %d, want %d",
					cycle, i, v.Cycle, exp)
			}
		}
	}
	for cycle := int64(1); cycle <= cycles-capacity; cycle++ {
		if _, ok := tr.Cycle(cycle); ok {
			t.Fatalf("cycle %d survived %d wraps of a capacity-%d ring",
				cycle, cycles/capacity, capacity)
		}
	}
	for cycle := int64(cycles - capacity + 1); cycle <= cycles; cycle++ {
		v, ok := tr.Cycle(cycle)
		if !ok || v.Cycle != cycle || v.Time != float64(cycle) {
			t.Fatalf("retained cycle %d = %+v, %v", cycle, v, ok)
		}
	}
	if v, ok := tr.Cycle(9); !ok || v.Err != "solver exploded" {
		t.Fatalf("cycle 9 error lost across the wrap: %+v, %v", v, ok)
	}
}

// BenchmarkObsHotPath pins the uncontended cost of the instruments on
// the router's dispatch path: a counter increment plus a histogram
// observation should stay in the tens of nanoseconds.
func BenchmarkObsHotPath(b *testing.B) {
	var c Counter
	h := NewHistogram(ExpBuckets(1e-7, 4, 12))
	b.Run("counter-inc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1e-6)
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram-observe-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(1e-6)
			}
		})
	})
}
