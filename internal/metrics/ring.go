package metrics

// Ring is a fixed-capacity ring buffer holding the most recent values
// pushed into it: observations accumulate forever, memory stays bounded,
// and readers get the retained window. The live daemon keeps its
// per-cycle snapshots, finished jobs and decision records in Rings, and
// obs.Tracer its cycle traces. The zero value is not usable; construct
// with NewRing.
//
// Ring is not safe for concurrent use; the caller serializes Push
// against Snapshot/Last under its own mutex (GET /v1/metrics copies the
// daemon's window inside the control-loop lock, and every Ring field
// carries a // dynplace:guardedby mu annotation checked by the
// lockguard analyzer). Callers that need lock-free observation on a hot
// path want internal/obs's instruments instead.
type Ring[T any] struct {
	buf   []T
	start int
	n     int
}

// NewRing returns a ring retaining up to capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest value when full.
func (r *Ring[T]) Push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the retention capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Last returns the most recently pushed value.
func (r *Ring[T]) Last() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.buf[(r.start+r.n-1)%len(r.buf)], true
}

// Snapshot returns the retained values oldest-first as a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}
