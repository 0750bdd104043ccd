package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one control cycle or
// one request share Trace, the id of their root span.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Trace    int64  `json:"trace"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends.
// A nil recorder records nothing, so the untraced run pays one nil
// check per call site.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	trace := id
	if parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Workload: r.workload,
		Name: name, StartNs: now,
	})
	return id
}

// end closes the span.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// importChild adds a span timed elsewhere — the daemon's own per-cycle
// span ring — under parent. offset and dur are relative to the
// parent's start.
func (r *recorder) importChild(parent int64, name string, offset, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	start := p.StartNs + offset.Nanoseconds()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Trace: p.Trace,
		Workload: r.workload, Name: name, StartNs: start, EndNs: start + dur.Nanoseconds(),
	})
}

// importRoot adds a root span of the given length that ended now: a
// cycle the daemon ran on its own clock, reconstructed after the fact.
func (r *recorder) importRoot(name string, dur time.Duration) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Trace: id, Workload: r.workload, Name: name,
		StartNs: now - dur.Nanoseconds(), EndNs: now,
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap
// each other (concurrent zone solves) and may stick out of the parent
// (imported spans carry microsecond rounding); both are handled by
// clipping to the parent and merging before subtracting.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int64][]iv)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.StartNs
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}
