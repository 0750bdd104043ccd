package daemon

import (
	"fmt"

	"dynplace/internal/control"
	"dynplace/internal/core"
)

// ExplainRecord is one flight-recorder entry: the cycle's decision
// provenance, or — for a failed cycle — the planning error, so an
// incident window reads as a contiguous run of records rather than a
// gap. Served on GET /v1/explain and folded into the debug bundle.
type ExplainRecord struct {
	Cycle int64   `json:"cycle"`
	Time  float64 `json:"time"`
	// Err is set (and Explanation nil) when the cycle's planning failed.
	Err         string                   `json:"err,omitempty"`
	Explanation *control.PlanExplanation `json:"explanation,omitempty"`
}

// AppExplainEntry is one application's slice of one recorded cycle, the
// unit GET /v1/explain/apps/{name} pages through.
type AppExplainEntry struct {
	Cycle int64   `json:"cycle"`
	Time  float64 `json:"time"`
	control.AppExplanation
}

// recordExplanation pushes a successful cycle's explanation into the
// flight recorder and folds its outcomes into the pre-registered
// counter families.
//
// dynplace:holds d.mu
func (d *Daemon) recordExplanation(cycle int64, now float64, pe *control.PlanExplanation) {
	if pe == nil {
		return
	}
	d.explain.Push(ExplainRecord{Cycle: cycle, Time: now, Explanation: pe})
	o := d.obs
	if o == nil {
		return
	}
	for i := range pe.Apps {
		app := &pe.Apps[i]
		if c, ok := o.explainOutcomes[app.Outcome]; ok {
			c.Inc()
		}
		if app.Outcome == core.OutcomeDenied {
			if c, ok := o.explainDenials[app.Binding]; ok {
				c.Inc()
			}
		}
	}
}

// LastExplanation returns the most recent flight-recorder entry; false
// when no cycle has run yet.
func (d *Daemon) LastExplanation() (ExplainRecord, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.explain.Last()
}

// ExplainRecords returns the retained flight-recorder window,
// oldest-first.
func (d *Daemon) ExplainRecords() []ExplainRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.explain.Snapshot()
}

// AppExplainHistory extracts one application's decision history from
// the retained window, oldest-first. An application that appears in no
// retained record and is not currently registered (as a web app or a
// submitted job) fails with ErrNotFound; a known application with no
// recorded cycles yet returns an empty history.
func (d *Daemon) AppExplainHistory(name string) ([]AppExplainEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := []AppExplainEntry{}
	for _, rec := range d.explain.Snapshot() {
		if rec.Explanation == nil {
			continue
		}
		for i := range rec.Explanation.Apps {
			app := &rec.Explanation.Apps[i]
			if app.App != name {
				continue
			}
			out = append(out, AppExplainEntry{
				Cycle:          rec.Cycle,
				Time:           rec.Time,
				AppExplanation: *app,
			})
			break
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	if _, ok := d.planner.WebApp(name); ok || d.planner.HasJob(name) {
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown application %q", ErrNotFound, name)
}
