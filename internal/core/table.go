package core

import (
	"math"
	"slices"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

// appConsts is what the solver reads of one application. All of it is
// fixed for the control cycle — a job's progress and the evaluation time
// do not change while candidates are scored — so it is derived once per
// Problem instead of on every bisection probe.
type appConsts struct {
	// web is the transactional model (nil for a batch job).
	web *txn.App
	// webCap and webMax are the web application's utility cap and
	// largest useful demand.
	webCap, webMax float64
	// job holds the batch job's equation constants at (Done, Now),
	// including the speed cap and floor of the stage in progress.
	job batch.Consts
	// mem is Application.MemoryMB().
	mem float64
}

// table is the per-Problem constants table: per application the
// quantities above, per node its capacities. It is built once per
// Optimize, Evaluate or Explain call and then only read, so the
// evaluation workers share it.
type table struct {
	p        *Problem
	apps     []appConsts
	nodeCaps []float64 // CPU MHz per node
	nodeMem  []float64 // memory MB per node
	// distinguished marks the nodes whose candidates and their scores
	// depend on the node itself, not only on its capacities and
	// residents: a node hosting an instance in p.Current (an instance
	// kept there costs no action), some application's LastNode (resuming
	// there is cheaper than moving) or one of its PinnedNodes. Optimize
	// never treats such a node as interchangeable with another.
	distinguished []bool
	// conflicts reports whether any application declares an
	// anti-collocation relation; when none does, collocation checks are
	// skipped entirely.
	conflicts bool
	// monotoneTo bounds the levels where every demand curve is monotone:
	// an unbounded web app (MaxPowerMHz 0) needs more than its webMax
	// between MaxDemand's level, webCap−1e-3, and webCap, where
	// demandAt drops back to webMax. +Inf when there is no such app.
	monotoneTo float64
}

// build fills the table for p, reusing its storage.
func (t *table) build(p *Problem) {
	t.p = p
	t.conflicts = false
	t.monotoneTo = math.Inf(1)
	t.apps = slices.Grow(t.apps[:0], len(p.Apps))[:len(p.Apps)]
	for i, a := range p.Apps {
		c := appConsts{}
		switch a.Kind {
		case KindWeb:
			c.web = a.Web
			c.webCap, c.webMax, c.mem = a.Web.UtilityCap(), a.Web.MaxDemand(), a.Web.MemoryMB
			if a.Web.MaxPowerMHz <= 0 {
				t.monotoneTo = min(t.monotoneTo, c.webCap-1e-3)
			}
		case KindBatch:
			c.job = a.Job.ConstsAt(a.Done, p.Now)
			c.mem = c.job.Memory
		}
		t.apps[i] = c
		if len(a.AntiCollocate) > 0 {
			t.conflicts = true
		}
	}
	n := p.Cluster.Len()
	t.nodeCaps, t.nodeMem = slices.Grow(t.nodeCaps[:0], n)[:n], slices.Grow(t.nodeMem[:0], n)[:n]
	for i := 0; i < n; i++ {
		nd, _ := p.Cluster.Node(cluster.NodeID(i))
		t.nodeCaps[i], t.nodeMem[i] = nd.CPUMHz, nd.MemMB
	}
	t.distinguished = slices.Grow(t.distinguished[:0], n)[:n]
	clear(t.distinguished)
	mark := func(nd cluster.NodeID) {
		if nd >= 0 && int(nd) < n {
			t.distinguished[nd] = true
		}
	}
	if p.Current != nil {
		for _, ns := range p.Current.nodes {
			for _, nd := range ns {
				mark(nd)
			}
		}
	}
	for _, nd := range p.LastNode {
		mark(nd)
	}
	for _, a := range p.Apps {
		for _, nd := range a.PinnedNodes {
			mark(nd)
		}
	}
}

// utilityCap returns the highest utility level the app can use.
func (t *table) utilityCap(app int) float64 {
	c := &t.apps[app]
	if c.web != nil {
		return c.webCap
	}
	return c.job.UtilityCap
}

// demandAt returns the CPU the app needs to reach level u (clamped to its
// achievable cap and speed limits, floored by the job's minimum speed).
func (t *table) demandAt(app int, u float64) float64 {
	c := &t.apps[app]
	if c.web != nil {
		if u >= c.webCap {
			return c.webMax
		}
		return c.web.Demand(u)
	}
	// At the achievable cap the job runs flat out: allocate the current
	// stage's full speed (the fluid average would under-buy a fast stage
	// ahead of a slow one). Stage transitions within the cycle are
	// handled by the stage-aware progress model, which wastes any excess
	// over a later stage's cap — the price of cycle-granular control.
	var d float64
	if u >= c.job.UtilityCap {
		d = c.job.MaxSpeed
	} else if d, _ = c.job.RequiredSpeed(u); d > c.job.MaxSpeed {
		d = c.job.MaxSpeed
	}
	if d < c.job.MinSpeed {
		d = c.job.MinSpeed
	}
	return d
}

// conflict reports whether applications a and b declare an
// anti-collocation relation (either direction).
func (t *table) conflict(a, b int) bool {
	if !t.conflicts {
		return false
	}
	x, y := t.p.Apps[a], t.p.Apps[b]
	return slices.Contains(x.AntiCollocate, y.Name) || slices.Contains(y.AntiCollocate, x.Name)
}

// fits reports whether node n can host apps (ascending) together: their
// memory fits the node's and no two are anti-collocated. It is the one
// fit rule — the full evaluation, repair, the candidate generators and
// Explain all decide through it — and it sums the footprints in
// ascending application order, so that every caller rounds the same way
// right at the capacity boundary.
func (t *table) fits(n cluster.NodeID, apps []int) bool {
	if _, over := t.memory(n, apps); over {
		return false
	}
	if t.conflicts {
		for i, app := range apps {
			for _, other := range apps[:i] {
				if t.conflict(app, other) {
					return false
				}
			}
		}
	}
	return true
}

// memory is fits' memory half: the footprints of apps (ascending) summed
// in that order, and whether the sum is over node n's memory.
func (t *table) memory(n cluster.NodeID, apps []int) (sum float64, over bool) {
	for _, app := range apps {
		sum += t.apps[app].mem
	}
	return sum, sum > t.nodeMem[n]+capTolerance
}

// fitsBeside is fits for app joining residents (ascending, app not among
// them) on node n. It inserts app in order into buf's storage and
// returns that set with the verdict, so a caller can keep it or ask
// memory about it.
func (t *table) fitsBeside(n cluster.NodeID, residents []int, app int, buf []int) ([]int, bool) {
	i, _ := slices.BinarySearch(residents, app)
	buf = append(append(append(buf[:0], residents[:i]...), app), residents[i:]...)
	return buf, t.fits(n, buf)
}

// residentIndex answers "which applications have an instance on this
// node" for one placement: a counting sort of its (app, node) incidences
// by node, each node's residents in ascending application order — the
// order Placement.OnNode reports, without its O(apps) scan per node.
type residentIndex struct {
	start []int // residents of node n are apps[start[n]:start[n+1]]
	apps  []int
}

// build indexes pl over a cluster of the given size, reusing storage.
func (r *residentIndex) build(pl *Placement, nodes int) {
	if cap(r.start) < nodes+1 {
		r.start = make([]int, nodes+1)
	} else {
		r.start = r.start[:nodes+1]
		clear(r.start)
	}
	total := 0
	for _, ns := range pl.nodes {
		for _, nd := range ns {
			r.start[nd+1]++
		}
		total += len(ns)
	}
	for n := 0; n < nodes; n++ {
		r.start[n+1] += r.start[n]
	}
	r.apps = slices.Grow(r.apps[:0], total)[:total]
	// Fill in application order, using start[n] as node n's cursor; the
	// cursors end one node ahead and are shifted back.
	for app, ns := range pl.nodes {
		for _, nd := range ns {
			r.apps[r.start[nd]] = app
			r.start[nd]++
		}
	}
	copy(r.start[1:], r.start[:nodes])
	r.start[0] = 0
}

// on returns node n's residents (ascending; do not mutate).
func (r *residentIndex) on(n cluster.NodeID) []int {
	return r.apps[r.start[n]:r.start[n+1]]
}

// has reports whether app has an instance on node n.
func (r *residentIndex) has(n cluster.NodeID, app int) bool {
	for _, x := range r.on(n) {
		if x == app {
			return true
		}
	}
	return false
}
