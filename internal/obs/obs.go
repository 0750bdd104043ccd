// Package obs is the daemon's observability core: dependency-free
// atomic counters and gauges, fixed-bucket latency histograms with a
// striped (per-CPU-style) hot path cheap enough for the router's
// dispatch loop, a registry that renders everything in the Prometheus
// text exposition format (text/plain; version=0.0.4), and a cycle
// tracer that records named spans for each control cycle into a
// bounded ring.
//
// Two design rules keep the package safe to thread through every
// layer:
//
//   - Instruments are nil-safe. Calling Inc, Add, Set or Observe on a
//     nil *Counter, *Gauge or *Histogram is a no-op, so instrumented
//     code never branches on "is observability enabled" — it simply
//     holds possibly-nil instrument pointers.
//
//   - Registration and collection take locks; observation does not.
//     Counter, Gauge and Histogram mutate only atomics, so the hot
//     path never contends with a scrape, and callers may observe while
//     holding their own locks without ordering obligations against the
//     registry (the encoder snapshots instrument pointers under the
//     registry lock and reads their atomics after releasing it).
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing cumulative count. The zero
// value is ready to use; a nil Counter ignores all writes.
//
// dynplace:nilsafe
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that may go up and down. The zero value is
// ready to use; a nil Gauge ignores all writes.
//
// dynplace:nilsafe
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
