package main

import (
	"fmt"
	"math"
	"sort"

	"dynplace"
	"dynplace/internal/daemon"
)

// check is one output assertion. A failed check fails the command; it
// is never a warning.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checklist accumulates checks by name: a named check stays ok until
// its first failure, whose detail is kept.
type checklist struct {
	order []string
	byKey map[string]*check
}

func newChecklist() *checklist { return &checklist{byKey: make(map[string]*check)} }

// pass registers the check as having run.
func (c *checklist) pass(name string) {
	if _, seen := c.byKey[name]; !seen {
		c.byKey[name] = &check{Name: name, OK: true}
		c.order = append(c.order, name)
	}
}

// fail records the first failure of the named check.
func (c *checklist) fail(name, format string, args ...any) {
	c.pass(name)
	if ch := c.byKey[name]; ch.OK {
		ch.OK = false
		ch.Detail = fmt.Sprintf(format, args...)
	}
}

// verify records err, when non-nil, as a failure of the named check.
func (c *checklist) verify(name string, err error) {
	c.pass(name)
	if err != nil {
		c.fail(name, "%v", err)
	}
}

func (c *checklist) list() []check {
	out := make([]check, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, *c.byKey[n])
	}
	return out
}

func (c *checklist) allOK() bool {
	for _, ch := range c.byKey {
		if !ch.OK {
			return false
		}
	}
	return true
}

// footprints remembers what the placement views do not carry: each
// workload's memory footprint, and each job's absolute deadline.
type footprints struct {
	webMemMB    map[string]float64
	jobMemMB    map[string]float64
	jobDeadline map[string]float64
}

func newFootprints() *footprints {
	return &footprints{
		webMemMB:    make(map[string]float64),
		jobMemMB:    make(map[string]float64),
		jobDeadline: make(map[string]float64),
	}
}

func (f *footprints) addWeb(spec dynplace.WebAppSpec) { f.webMemMB[spec.Name] = spec.MemoryMB }

// addJob records a single-stage job submitted at virtual time now with
// a relative deadline.
func (f *footprints) addJob(spec dynplace.JobSpec, now float64) {
	f.jobMemMB[spec.Name] = spec.MemoryMB
	f.jobDeadline[spec.Name] = now + spec.Deadline
}

// checkPlacement asserts what every published placement must satisfy:
// the cycle neither failed nor was infeasible, and on every node the
// CPU and memory of what is placed there stay within the node.
func checkPlacement(p *daemon.PlacementSnapshot, f *footprints) error {
	if p.Err != "" || p.Infeasible {
		return fmt.Errorf("cycle %d failed: err=%q infeasible=%v", p.Cycle, p.Err, p.Infeasible)
	}
	type use struct{ cpu, mem float64 }
	used := make(map[string]use, len(p.Nodes))
	for _, w := range p.Web {
		for _, in := range w.Instances {
			u := used[in.Node]
			u.cpu += in.PowerMHz
			u.mem += f.webMemMB[w.Name]
			used[in.Node] = u
		}
	}
	for _, j := range p.Jobs {
		if j.Node == "" {
			continue
		}
		u := used[j.Node]
		u.cpu += j.SpeedMHz
		u.mem += f.jobMemMB[j.Name]
		used[j.Node] = u
	}
	for _, n := range p.Nodes {
		u := used[n.Name]
		if u.cpu > n.CPUMHz*(1+1e-9)+1e-6 {
			return fmt.Errorf("cycle %d: node %s carries %.3f MHz of %.0f", p.Cycle, n.Name, u.cpu, n.CPUMHz)
		}
		if u.mem > n.MemMB*(1+1e-9)+1e-6 {
			return fmt.Errorf("cycle %d: node %s carries %.1f MB of %.0f", p.Cycle, n.Name, u.mem, n.MemMB)
		}
		delete(used, n.Name)
	}
	for name := range used {
		return fmt.Errorf("cycle %d: work placed on unknown node %q", p.Cycle, name)
	}
	return nil
}

// instanceSets indexes a placement's web instances: app → node → true.
func instanceSets(p *daemon.PlacementSnapshot) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(p.Web))
	for _, w := range p.Web {
		set := make(map[string]bool, len(w.Instances))
		for _, in := range w.Instances {
			set[in.Node] = true
		}
		out[w.Name] = set
	}
	return out
}

// checkJobsAccounted asserts zero lost and zero duplicated jobs: every
// submitted name appears exactly once in the daemon's job results.
func checkJobsAccounted(submitted map[string]float64, results []dynplace.JobResult) error {
	seen := make(map[string]int, len(results))
	for _, r := range results {
		seen[r.Name]++
	}
	for name := range submitted {
		switch seen[name] {
		case 1:
		case 0:
			return fmt.Errorf("job %q was acknowledged but is neither live nor in the results", name)
		default:
			return fmt.Errorf("job %q appears %d times in the results", name, seen[name])
		}
	}
	return nil
}

// jobQuality scores the batch side over jobs whose fate is decided by
// virtual time horizon: the mean utility at completion of the jobs that
// completed by then, and the share of the jobs whose deadline falls by
// then that met it.
func jobQuality(results []dynplace.JobResult, deadlines map[string]float64, horizon float64) (utilityMean, ontimePct float64, completed, due int) {
	var sum float64
	met := 0
	for _, r := range results {
		done := r.Completed && r.CompletedAt <= horizon
		if done {
			sum += r.Utility
			completed++
		}
		if dl, known := deadlines[r.Name]; known && dl <= horizon {
			due++
			if done && r.CompletedAt <= dl {
				met++
			}
		}
	}
	if completed > 0 {
		utilityMean = sum / float64(completed)
	}
	ontimePct = 100
	if due > 0 {
		ontimePct = 100 * float64(met) / float64(due)
	}
	return utilityMean, ontimePct, completed, due
}

// plannedScores is what a stretch of cycle history says about the web
// side as the controller planned it.
type plannedScores struct {
	ratios     []float64 // response time over goal, per cycle and app
	utilityMin float64
	changes    int
}

// scoreHistory scores the given cycles and fails cycles_feasible for
// any that erred or had no feasible placement.
func scoreHistory(history []daemon.CycleSnapshot, checks *checklist) plannedScores {
	sc := plannedScores{utilityMin: math.Inf(1)}
	checks.pass("cycles_feasible")
	for _, c := range history {
		sc.changes += c.Changes
		if c.Err != "" || c.Infeasible {
			checks.fail("cycles_feasible", "cycle %d: err=%q infeasible=%v", c.Cycle, c.Err, c.Infeasible)
		}
		names := make([]string, 0, len(c.WebUtilities))
		for name := range c.WebUtilities {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			u := c.WebUtilities[name]
			sc.ratios = append(sc.ratios, rtGoalRatio(u))
			sc.utilityMin = math.Min(sc.utilityMin, u)
		}
	}
	return sc
}

// rtGoalRatio converts a web utility into response time over goal:
// u = (goal − rt)/goal, so rt/goal = 1 − u. Below 1 the goal is met.
func rtGoalRatio(utility float64) float64 { return 1 - math.Max(utility, -1) }
