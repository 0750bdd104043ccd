package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket cumulative-distribution histogram tuned
// for hot paths: observations touch only atomics in one of several
// cache-line-aligned stripes, so concurrent observers (the router's
// dispatch path, concurrent HTTP handlers) do not serialize on a lock
// or ping-pong a shared cache line. Stripe selection uses the
// runtime's per-P cheap RNG (math/rand/v2's global Uint64), which
// costs a few nanoseconds and needs no coordination.
//
// Buckets are upper bounds in the Prometheus le convention: an
// observation v lands in the first bucket whose bound is ≥ v, with an
// implicit +Inf bucket at the end. Bounds are fixed at construction.
// A nil Histogram ignores all observations.
//
// dynplace:nilsafe
type Histogram struct {
	bounds []float64
	// cells holds every stripe back to back: stride atomics per
	// stripe, of which the first len(bounds)+1 are bucket counts (the
	// last being +Inf) and the next holds the float64 bit pattern of
	// the stripe's observation sum. The stride is rounded up to a
	// whole number of 64-byte cache lines so stripes never share one.
	cells  []atomic.Uint64
	stride int
	mask   uint64
}

const cacheLineWords = 8 // 64 bytes / 8-byte atomic

// stripesForCPUs returns the stripe count: the smallest power of two
// that is at least the number of usable CPUs, capped to keep snapshot
// cost and memory bounded on very wide machines.
func stripesForCPUs() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// NewHistogram returns a histogram with the given upper bounds, which
// must be finite, strictly increasing and non-empty. The implicit
// +Inf bucket is added automatically.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
		if i > 0 && b <= own[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	stripes := stripesForCPUs()
	words := len(own) + 2 // bucket counts + +Inf + sum
	stride := (words + cacheLineWords - 1) / cacheLineWords * cacheLineWords
	return &Histogram{
		bounds: own,
		cells:  make([]atomic.Uint64, stripes*stride),
		stride: stride,
		mask:   uint64(stripes - 1),
	}
}

// ExpBuckets returns count exponentially spaced bounds starting at
// start and multiplying by factor, e.g. ExpBuckets(0.001, 2, 10) for
// 1ms…512ms. start must be positive and factor greater than 1.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count ≥ 1")
	}
	out := make([]float64, count)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum); everything else lands in its le bucket, with
// values beyond the last bound counted under +Inf.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	base := int(rand.Uint64()&h.mask) * h.stride
	// Inlined SearchFloat64s: first bound ≥ v (the le convention).
	// The closure-free loop saves ~10ns on the dispatch hot path.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	h.cells[base+i].Add(1)
	sum := &h.cells[base+len(h.bounds)+1]
	for {
		old := sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// HistogramSnapshot is a point-in-time aggregate of a histogram:
// per-bucket counts (not cumulative; the final entry is the +Inf
// bucket), the observation total and the value sum.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot aggregates every stripe. Concurrent observers may land
// between bucket and sum reads, so the snapshot is consistent only in
// the eventual sense every sampled metrics system accepts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	nb := len(h.bounds) + 1
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, nb),
	}
	stripes := int(h.mask) + 1
	for s := 0; s < stripes; s++ {
		base := s * h.stride
		for i := 0; i < nb; i++ {
			snap.Counts[i] += h.cells[base+i].Load()
		}
		snap.Sum += math.Float64frombits(h.cells[base+nb].Load())
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	return snap
}
