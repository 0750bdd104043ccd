// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of timed
// events. Events scheduled for the same instant fire in the order they
// were scheduled (FIFO within a timestamp), which keeps runs fully
// deterministic for a fixed seed and schedule.
//
// Simulated time is represented as float64 seconds since the start of the
// run. The paper's experiments span hundreds of thousands of seconds, far
// outside what wall-clock-oriented types are meant for, so the kernel
// deliberately uses a scalar virtual time rather than time.Time.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Time is a virtual timestamp in seconds since the start of the simulation.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Add returns the time d seconds after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Seconds returns the timestamp as a raw float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Event is a callback scheduled to run at a virtual instant.
type Event func(now Time)

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	id uint64
}

type scheduled struct {
	at    Time
	seq   uint64 // tie-break: FIFO within equal timestamps
	fn    Event
	index int // heap index, -1 when popped or cancelled
}

type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*scheduled)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Simulator is a discrete-event simulation driver. The zero value is not
// usable; construct one with New.
type Simulator struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
	byID    map[uint64]*scheduled
	stopped bool
}

// New returns a simulator with its clock at zero and an empty agenda.
func New() *Simulator {
	return &Simulator{byID: make(map[uint64]*scheduled)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn to run at the absolute virtual time at. It returns a
// handle that can be passed to Cancel.
func (s *Simulator) At(at Time, fn Event) (Handle, error) {
	if at < s.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	if fn == nil {
		return Handle{}, errors.New("sim: nil event")
	}
	s.nextSeq++
	ev := &scheduled{at: at, seq: s.nextSeq, fn: fn}
	heap.Push(&s.queue, ev)
	s.byID[ev.seq] = ev
	return Handle{id: ev.seq}, nil
}

// After schedules fn to run d seconds from the current virtual time.
func (s *Simulator) After(d Duration, fn Event) (Handle, error) {
	if d < 0 || math.IsNaN(d) {
		return Handle{}, fmt.Errorf("%w: delay=%v", ErrPastEvent, d)
	}
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired or was cancelled before).
func (s *Simulator) Cancel(h Handle) bool {
	ev, ok := s.byID[h.id]
	if !ok || ev.index < 0 {
		return false
	}
	heap.Remove(&s.queue, ev.index)
	delete(s.byID, h.id)
	return true
}

// Stop makes the current Run call return after the in-flight event
// completes. Scheduled events remain on the agenda.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when the agenda is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	popped := heap.Pop(&s.queue)
	ev, ok := popped.(*scheduled)
	if !ok {
		return false
	}
	delete(s.byID, ev.seq)
	s.now = ev.at
	ev.fn(s.now)
	return true
}

// Run fires events until the agenda is empty, the horizon is crossed, or
// Stop is called. Events timestamped exactly at the horizon still fire;
// later ones remain scheduled. It returns the virtual time when it stopped.
func (s *Simulator) Run(horizon Time) Time {
	s.stopped = false
	for !s.stopped && len(s.queue) > 0 {
		if s.queue[0].at > horizon {
			// Advance to the horizon so a subsequent Run picks up cleanly.
			s.now = horizon
			return s.now
		}
		s.Step()
	}
	if s.now < horizon && len(s.queue) == 0 {
		s.now = horizon
	}
	return s.now
}

// RunAll fires events until the agenda is empty or Stop is called.
func (s *Simulator) RunAll() Time {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	return s.now
}
