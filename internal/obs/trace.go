package obs

import (
	"sync"
	"time"

	"dynplace/internal/metrics"
)

// SpanView is one named, timed segment of a control cycle. Offsets
// and durations are microseconds of real (wall) time relative to the
// cycle's start — real even when the daemon runs on a virtual clock,
// because spans measure actual compute.
type SpanView struct {
	Name string `json:"name"`
	// StartMicros is the span's offset from the cycle start.
	StartMicros int64 `json:"startMicros"`
	// DurationMicros is the span's wall-clock length.
	DurationMicros int64 `json:"durationMicros"`
}

// TraceView is the immutable record of one traced control cycle: its
// ordinal, the virtual-time instant it planned for, its total
// wall-clock duration, the error (if the cycle failed) and every
// recorded span.
type TraceView struct {
	Cycle          int64      `json:"cycle"`
	Time           float64    `json:"time"`
	DurationMicros int64      `json:"durationMicros"`
	Err            string     `json:"err,omitempty"`
	Spans          []SpanView `json:"spans"`
}

// CycleTrace accumulates the spans of one in-flight cycle. It is
// single-writer by design — the control loop already serializes a
// cycle end to end — and every method is nil-safe so tracing can be
// threaded through call paths that may run untraced.
//
// dynplace:nilsafe
type CycleTrace struct {
	cycle int64
	vtime float64
	start time.Time
	spans []SpanView
}

// Span opens a named span now and returns the function that closes
// it; the usual shape is `defer ct.Span("solve")()` or an explicit
// close around the timed region.
func (ct *CycleTrace) Span(name string) func() {
	if ct == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		ct.spans = append(ct.spans, SpanView{
			Name:           name,
			StartMicros:    begin.Sub(ct.start).Microseconds(),
			DurationMicros: time.Since(begin).Microseconds(),
		})
	}
}

// AddSpan records a span from measurements taken elsewhere — the
// shard coordinator's concurrent zone solves are timed inside their
// goroutines and reconstructed here after the fact. start is the
// span's offset from the cycle start.
func (ct *CycleTrace) AddSpan(name string, start, dur time.Duration) {
	if ct == nil {
		return
	}
	ct.spans = append(ct.spans, SpanView{
		Name:           name,
		StartMicros:    start.Microseconds(),
		DurationMicros: dur.Microseconds(),
	})
}

// Elapsed returns the wall time since the cycle began — the offset an
// AddSpan caller needs for a region it timed externally.
func (ct *CycleTrace) Elapsed() time.Duration {
	if ct == nil {
		return 0
	}
	return time.Since(ct.start)
}

// Tracer retains the span timelines of the most recent control cycles
// in a bounded ring. Begin/Finish are called by the control loop;
// Cycle and Recent serve concurrent HTTP readers. A nil Tracer
// returns nil traces, which every CycleTrace method accepts.
//
// dynplace:nilsafe
type Tracer struct {
	mu sync.Mutex
	// dynplace:guardedby mu
	ring *metrics.Ring[TraceView]
}

// NewTracer returns a tracer retaining up to capacity cycles
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: metrics.NewRing[TraceView](capacity)}
}

// Begin opens the trace for one cycle. cycle is the cycle ordinal and
// vtime the virtual-time instant being planned for. A nil tracer
// returns a nil trace, which every CycleTrace method accepts.
func (t *Tracer) Begin(cycle int64, vtime float64) *CycleTrace {
	if t == nil {
		return nil
	}
	return &CycleTrace{cycle: cycle, vtime: vtime, start: time.Now()}
}

// Finish seals the trace and pushes it into the ring, returning the
// recorded view. err is empty for a successful cycle. Finishing a nil
// trace is a no-op.
func (t *Tracer) Finish(ct *CycleTrace, err string) TraceView {
	if t == nil || ct == nil {
		return TraceView{}
	}
	view := TraceView{
		Cycle:          ct.cycle,
		Time:           ct.vtime,
		DurationMicros: time.Since(ct.start).Microseconds(),
		Err:            err,
		Spans:          ct.spans,
	}
	ct.spans = nil // the view owns the slice now
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Push(view)
	return view
}

// Cycle returns the retained trace for the given cycle ordinal.
func (t *Tracer) Cycle(cycle int64) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	views := t.Recent()
	for i := len(views) - 1; i >= 0; i-- {
		if views[i].Cycle == cycle {
			return views[i], true
		}
	}
	return TraceView{}, false
}

// Recent returns the retained traces oldest-first.
func (t *Tracer) Recent() []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Snapshot()
}
