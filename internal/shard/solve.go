package shard

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/rpf"
)

// Rebalancer tuning. Ratios are dimensionless zone utilizations
// (committed demand over capacity, CPU or memory, whichever binds).
const (
	// stickiness is how much worse a queued application's remembered
	// zone may be than the best zone before the rebalancer moves it.
	// Below the threshold the app stays put, bounding churn.
	stickiness = 0.10
	// overload is the committed-demand ratio past which a zone sheds
	// placed work to zones with headroom.
	overload = 1.0
	// reliefMargin is the minimum ratio improvement a relief move must
	// buy; it keeps the relief loop from thrashing work between two
	// equally full zones.
	reliefMargin = 0.05
)

// Solve runs one sharded control-cycle optimization: rebalance the
// application→zone assignment, solve every zone concurrently, and merge
// the zone results into one global Result whose fields mean exactly
// what core.Optimize's do. The per-zone Stats describe how the cycle
// decomposed; they are also retained to bias the next cycle's
// rebalancing. Solve does not mutate p.
func (c *Coordinator) Solve(p *core.Problem) (*core.Result, []Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	//dynplace:ignore clockhygiene span timings for the cycle tracer; solver output is independent of them
	begin := time.Now()
	timings := Timings{}
	lay := newLayout(p.Cluster.Len(), c.cfg.Count)
	if fp := clusterFingerprint(p.Cluster); fp != c.prevFingerprint {
		// The node set changed since the retained stats were computed:
		// zone shapes moved, so carrying the old per-zone pressure into
		// the repartitioned layout would bias the wrong zones.
		c.prev = nil
		c.prevFingerprint = fp
	}
	st := c.rebalance(p, lay)
	subs := buildSubproblems(p, lay, st)
	timings.Rebalance = time.Since(begin) //dynplace:ignore clockhygiene span timing; telemetry only
	timings.ZoneStart = make([]time.Duration, lay.count)

	stats := make([]Stats, lay.count)
	results := make([]*core.Result, lay.count)
	errs := make([]error, lay.count)

	workers := p.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inner := max(1, workers/lay.count)
	sem := make(chan struct{}, min(lay.count, workers))
	var wg sync.WaitGroup
	for s := range subs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sub := subs[s]
			sub.p.Parallelism = inner
			//dynplace:ignore clockhygiene per-zone solve timing for shard stats; telemetry only
			solveBegin := time.Now()
			timings.ZoneStart[s] = solveBegin.Sub(begin)
			res, cold, err := solveZone(sub.p)
			stats[s] = Stats{
				Shard:       s,
				Nodes:       sub.p.Cluster.Len(),
				CPUMHz:      sub.p.Cluster.TotalCPU(),
				MemMB:       sub.p.Cluster.TotalMem(),
				SolveMillis: float64(time.Since(solveBegin)) / float64(time.Millisecond), //dynplace:ignore clockhygiene telemetry only
				ColdRestart: cold,
			}
			results[s], errs[s] = res, err
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d (%d nodes): %w", s, subs[s].p.Cluster.Len(), err)
		}
	}

	//dynplace:ignore clockhygiene merge span timing; telemetry only
	mergeBegin := time.Now()
	merged := c.merge(p, lay, st, subs, results, stats)
	c.persist(p, st)
	timings.Merge = time.Since(mergeBegin) //dynplace:ignore clockhygiene telemetry only
	c.prev = stats
	c.lastTimings = timings
	c.lastMoves = st.moves
	return merged, stats, nil
}

// solveZone runs one zone's optimization. A zone whose carried placement
// has become infeasible (capacity loss since last cycle) is retried once
// from an empty placement — evicting the zone's workload is recoverable,
// failing the whole control cycle is not.
func solveZone(p *core.Problem) (*core.Result, bool, error) {
	res, err := core.Optimize(p)
	if err == nil || !errors.Is(err, core.ErrInfeasible) || p.Current == nil {
		return res, false, err
	}
	cold := *p
	cold.Current = nil
	res, err = core.Optimize(&cold)
	return res, true, err
}

// cycleState is one cycle's rebalancing work sheet.
type cycleState struct {
	// assign is the chosen zone per application.
	assign []int
	// anchor is the zone holding the app's current instances (-1 when
	// unplaced); an app assigned away from its anchor is a forced move.
	anchor []int
	// demand and mem are the per-application load estimates.
	demand, mem []float64
	// cpu/memCommitted accumulate assigned load per zone.
	cpuCap, memCap, cpuCommitted, memCommitted []float64
	// pressure is the previous cycle's unmet demand per zone, as a
	// capacity fraction — the persistent-imbalance signal.
	pressure []float64
	movesIn  []int
	// moves is the cycle's zone-move provenance: one stamped record per
	// assignment that changed (or was made for the first time).
	moves []Move
}

// ratio returns the zone's committed-load ratio: the binding of CPU and
// memory, plus the carried unmet-demand pressure.
func (st *cycleState) ratio(s int) float64 {
	r := st.cpuCommitted[s] / st.cpuCap[s]
	if m := st.memCommitted[s] / st.memCap[s]; m > r {
		r = m
	}
	return r + st.pressure[s]
}

// ratioWith returns what ratio(s) would become with app i added.
func (st *cycleState) ratioWith(s, i int) float64 {
	r := (st.cpuCommitted[s] + st.demand[i]) / st.cpuCap[s]
	if m := (st.memCommitted[s] + st.mem[i]) / st.memCap[s]; m > r {
		r = m
	}
	return r + st.pressure[s]
}

func (st *cycleState) commit(s, i int) {
	st.cpuCommitted[s] += st.demand[i]
	st.memCommitted[s] += st.mem[i]
	st.assign[i] = s
}

func (st *cycleState) uncommit(s, i int) {
	st.cpuCommitted[s] -= st.demand[i]
	st.memCommitted[s] -= st.mem[i]
}

// rebalance chooses each application's zone for this cycle. Placed work
// is sticky: it stays in the zone holding its instances unless that zone
// is overloaded. Queued work is fluid: it is (re)distributed every cycle
// toward the zone with the most headroom, with the previous cycle's
// unmet demand biasing assignments away from zones that could not place
// what they were given. The pass is deterministic: applications are
// visited in index order, ties break toward the lower zone, and the only
// hash is the seeded first-touch spreader.
func (c *Coordinator) rebalance(p *core.Problem, lay layout) *cycleState {
	n := len(p.Apps)
	st := &cycleState{
		assign:       make([]int, n),
		anchor:       make([]int, n),
		demand:       make([]float64, n),
		mem:          make([]float64, n),
		cpuCap:       make([]float64, lay.count),
		memCap:       make([]float64, lay.count),
		cpuCommitted: make([]float64, lay.count),
		memCommitted: make([]float64, lay.count),
		pressure:     make([]float64, lay.count),
		movesIn:      make([]int, lay.count),
	}
	for i := 0; i < p.Cluster.Len(); i++ {
		nd, _ := p.Cluster.Node(cluster.NodeID(i))
		s := lay.zoneOf(nd.ID)
		st.cpuCap[s] += nd.CPUMHz
		st.memCap[s] += nd.MemMB
	}
	if len(c.prev) == lay.count {
		for s, prev := range c.prev {
			st.pressure[s] = prev.UnmetDemandMHz / st.cpuCap[s]
		}
	}
	for i, a := range p.Apps {
		st.demand[i] = appDemand(a, p.Now)
		st.mem[i] = a.MemoryMB()
		st.assign[i] = -1
		st.anchor[i] = anchorZone(p, lay, i)
	}

	// Pass 1: placed applications stay with their instances. When the
	// node set changed, zone boundaries moved under those instances, so
	// an anchor disagreeing with the recorded assignment is a
	// repartition move, not a rebalancing decision.
	for i := range p.Apps {
		if s := st.anchor[i]; s >= 0 && zoneAllowed(p.Apps[i], lay, s) {
			if prev, seen := c.assign[p.Apps[i].Name]; seen && prev != s {
				st.moves = append(st.moves, Move{
					App: p.Apps[i].Name, From: prev, To: s, Trigger: TriggerRepartition,
				})
			}
			st.commit(s, i)
		}
	}

	// Pass 2: queued applications flow to headroom.
	for i, a := range p.Apps {
		if st.assign[i] >= 0 {
			continue
		}
		allowed := allowedZones(a, lay)
		cand := c.preferredZone(p, lay, i, allowed)
		best := cand
		for _, s := range allowed {
			if st.ratioWith(s, i) < st.ratioWith(best, i) {
				best = s
			}
		}
		_, seen := c.assign[a.Name]
		if st.ratioWith(cand, i) > st.ratioWith(best, i)+stickiness {
			if seen {
				st.movesIn[best]++
				st.moves = append(st.moves, Move{
					App: a.Name, From: cand, To: best, Trigger: TriggerHeadroom,
				})
			}
			cand = best
		}
		if !seen {
			st.moves = append(st.moves, Move{
				App: a.Name, From: -1, To: cand, Trigger: TriggerFirstTouch,
			})
		}
		st.commit(cand, i)
	}

	// Pass 3: relieve overloaded zones by shedding their cheapest placed
	// work — batch jobs first (a suspend/resume), web apps only as a
	// last resort (a re-placement of a whole instance cluster).
	maxMoves := n/8 + 1
	for moves := 0; moves < maxMoves; moves++ {
		src := -1
		for s := 0; s < lay.count; s++ {
			if st.ratio(s) > overload && (src < 0 || st.ratio(s) > st.ratio(src)) {
				src = s
			}
		}
		if src < 0 {
			break
		}
		i := st.cheapestMovable(p, src, core.KindBatch)
		if i < 0 {
			i = st.cheapestMovable(p, src, core.KindWeb)
		}
		if i < 0 {
			break
		}
		dst, dstRatio := -1, 0.0
		for _, s := range allowedZones(p.Apps[i], lay) {
			if s == src {
				continue
			}
			if r := st.ratioWith(s, i); dst < 0 || r < dstRatio {
				dst, dstRatio = s, r
			}
		}
		if dst < 0 || dstRatio >= st.ratio(src)-reliefMargin {
			break
		}
		st.uncommit(src, i)
		st.commit(dst, i)
		st.movesIn[dst]++
		st.moves = append(st.moves, Move{
			App: p.Apps[i].Name, From: src, To: dst, Trigger: TriggerOverloadRelief,
		})
	}
	return st
}

// cheapestMovable returns the smallest-demand placed application of the
// given kind assigned to zone s, or -1.
func (st *cycleState) cheapestMovable(p *core.Problem, s int, kind core.Kind) int {
	best := -1
	for i, a := range p.Apps {
		if a.Kind != kind || st.assign[i] != s || st.anchor[i] != s {
			continue
		}
		if best < 0 || st.demand[i] < st.demand[best] {
			best = i
		}
	}
	return best
}

// anchorZone returns the zone holding the majority of the app's current
// instances (ties toward the lower zone), or -1 when unplaced.
func anchorZone(p *core.Problem, lay layout, i int) int {
	if p.Current == nil {
		return -1
	}
	nodes := p.Current.NodesOf(i)
	if len(nodes) == 0 {
		return -1
	}
	counts := make(map[int]int, 2)
	for _, nd := range nodes {
		counts[lay.zoneOf(nd)]++
	}
	best, bestN := -1, 0
	for s := 0; s < lay.count; s++ {
		if n := counts[s]; n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// preferredZone is a queued application's default zone before headroom
// is considered: where it was assigned last cycle, else where it last
// ran, else a seeded hash spread over its allowed zones.
func (c *Coordinator) preferredZone(p *core.Problem, lay layout, i int, allowed []int) int {
	a := p.Apps[i]
	if s, ok := c.assign[a.Name]; ok && s < lay.count && zoneAllowed(a, lay, s) {
		return s
	}
	if i < len(p.LastNode) {
		if last := p.LastNode[i]; last >= 0 && int(last) < p.Cluster.Len() {
			if s := lay.zoneOf(last); zoneAllowed(a, lay, s) {
				return s
			}
		}
	}
	return allowed[hash64(c.cfg.Seed, a.Name)%uint64(len(allowed))]
}

// allowedZones returns the zones an application may be assigned to: all
// of them, unless pinned nodes restrict it.
func allowedZones(a *core.Application, lay layout) []int {
	if len(a.PinnedNodes) == 0 {
		all := make([]int, lay.count)
		for s := range all {
			all[s] = s
		}
		return all
	}
	seen := make(map[int]bool, len(a.PinnedNodes))
	var out []int
	for _, nd := range a.PinnedNodes {
		if int(nd) < 0 || int(nd) >= lay.starts[lay.count] {
			continue
		}
		if s := lay.zoneOf(nd); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		// Every pin is off-cluster. Park the app in zone 0; its pins are
		// preserved as unsatisfiable there (see buildSubproblems), so it
		// stays unplaced exactly as under the flat solver.
		out = []int{0}
	}
	slices.Sort(out)
	return out
}

// zoneAllowed reports whether the app's pins permit zone s.
func zoneAllowed(a *core.Application, lay layout, s int) bool {
	if len(a.PinnedNodes) == 0 {
		return true
	}
	for _, z := range allowedZones(a, lay) {
		if z == s {
			return true
		}
	}
	return false
}

// subproblem is one zone's slice of the global problem.
type subproblem struct {
	p *core.Problem
	// apps maps local app index → global app index (ascending).
	apps []int
	// start is the zone's first global node index; local node k is
	// global node start+k (zones are contiguous).
	start int
}

// buildSubproblems carves the global problem into one independent
// problem per zone: the zone's nodes (renumbered from zero), the
// applications assigned to it (in global order), the carried placement
// restricted to the zone, and every optimizer knob copied through.
func buildSubproblems(p *core.Problem, lay layout, st *cycleState) []*subproblem {
	subs := make([]*subproblem, lay.count)
	for s := 0; s < lay.count; s++ {
		start, end := lay.starts[s], lay.starts[s+1]
		defs := make([]cluster.Node, 0, end-start)
		for i := start; i < end; i++ {
			nd, _ := p.Cluster.Node(cluster.NodeID(i))
			defs = append(defs, cluster.Node{Name: nd.Name, CPUMHz: nd.CPUMHz, MemMB: nd.MemMB})
		}
		cl, err := cluster.New(defs...)
		if err != nil {
			// Unreachable: the zone nodes passed the global validation.
			panic(fmt.Sprintf("shard: zone %d cluster: %v", s, err))
		}
		subs[s] = &subproblem{start: start, p: &core.Problem{
			Cluster:           cl,
			Now:               p.Now,
			Cycle:             p.Cycle,
			Costs:             p.Costs,
			ExactHypothetical: p.ExactHypothetical,
			Epsilon:           p.Epsilon,
			MaxPasses:         p.MaxPasses,
			VerifyIncremental: p.VerifyIncremental,
		}}
	}
	for i, a := range p.Apps {
		sub := subs[st.assign[i]]
		sub.apps = append(sub.apps, i)
		local := &core.Application{
			Name:          a.Name,
			Kind:          a.Kind,
			Web:           a.Web,
			Job:           a.Job,
			Done:          a.Done,
			Started:       a.Started,
			AntiCollocate: a.AntiCollocate,
		}
		for _, nd := range a.PinnedNodes {
			if l, ok := sub.localNode(nd, lay); ok {
				local.PinnedNodes = append(local.PinnedNodes, l)
			}
		}
		if len(a.PinnedNodes) > 0 && len(local.PinnedNodes) == 0 {
			// Every pin lies outside this zone (or off the cluster
			// entirely). Keep the constraint unsatisfiable rather than
			// dropping it — the flat solver would leave the app
			// unplaced, and so must the sharded one.
			local.PinnedNodes = []cluster.NodeID{-1}
		}
		sub.p.Apps = append(sub.p.Apps, local)
	}
	for _, sub := range subs {
		sub.p.Current = core.NewPlacement(len(sub.p.Apps))
		if p.LastNode != nil {
			sub.p.LastNode = make([]cluster.NodeID, len(sub.p.Apps))
		}
		for k, g := range sub.apps {
			if p.Current != nil {
				for _, nd := range p.Current.NodesOf(g) {
					if l, ok := sub.localNode(nd, lay); ok {
						sub.p.Current.Add(k, l)
					}
				}
			}
			if sub.p.LastNode != nil {
				sub.p.LastNode[k] = -1
				if g < len(p.LastNode) {
					if l, ok := sub.localNode(p.LastNode[g], lay); ok {
						sub.p.LastNode[k] = l
					}
				}
			}
		}
	}
	return subs
}

// localNode translates a global node ID into this zone's numbering.
func (sub *subproblem) localNode(nd cluster.NodeID, lay layout) (cluster.NodeID, bool) {
	if int(nd) < sub.start || int(nd) >= sub.start+sub.p.Cluster.Len() {
		return -1, false
	}
	return cluster.NodeID(int(nd) - sub.start), true
}

// merge recombines the zone results into one global Result and fills in
// the per-zone stats' workload columns.
func (c *Coordinator) merge(p *core.Problem, lay layout, st *cycleState,
	subs []*subproblem, results []*core.Result, stats []Stats) *core.Result {
	n := len(p.Apps)
	merged := &core.Result{
		Placement: core.NewPlacement(n),
		Eval: &core.Evaluation{
			Feasible:  true,
			PerApp:    make([]float64, n),
			Utilities: make([]float64, n),
			WebShares: make(map[int][]float64),
		},
	}
	for s, res := range results {
		sub := subs[s]
		stats[s].MovesIn = st.movesIn[s]
		for k, g := range sub.apps {
			stats[s].DemandMHz += st.demand[g]
			if p.Apps[g].Kind == core.KindWeb {
				stats[s].WebApps++
			} else {
				stats[s].Jobs++
			}
			merged.Eval.PerApp[g] = res.Eval.PerApp[k]
			merged.Eval.Utilities[g] = res.Eval.Utilities[k]
			stats[s].AllocMHz += res.Eval.PerApp[k]
			nodes := res.Placement.NodesOf(k)
			if len(nodes) == 0 {
				stats[s].Unplaced++
				continue
			}
			stats[s].Placed++
			for _, nd := range nodes {
				merged.Placement.Add(g, cluster.NodeID(sub.start+int(nd)))
			}
			if shares, ok := res.Eval.WebShares[k]; ok {
				merged.Eval.WebShares[g] = append([]float64(nil), shares...)
			}
		}
		merged.Eval.OmegaG += res.Eval.OmegaG
		merged.CandidatesEvaluated += res.CandidatesEvaluated
		merged.Probes += res.Probes
		merged.FlowSolves += res.FlowSolves
		merged.Repaired = merged.Repaired || res.Repaired
		stats[s].Utilization = stats[s].AllocMHz / stats[s].CPUMHz
		stats[s].Candidates = res.CandidatesEvaluated
		if unmet := stats[s].DemandMHz - stats[s].AllocMHz; unmet > 0 {
			stats[s].UnmetDemandMHz = unmet
		}
	}
	merged.Eval.Vector = rpf.NewVector(merged.Eval.Utilities)
	if p.Current != nil {
		merged.Changes = merged.Placement.Changes(p.Current)
	} else {
		merged.Changes = merged.Placement.Changes(core.NewPlacement(n))
	}
	return merged
}

// persist carries the assignment map to the next cycle, pruned to the
// applications that still exist.
func (c *Coordinator) persist(p *core.Problem, st *cycleState) {
	next := make(map[string]int, len(p.Apps))
	for i, a := range p.Apps {
		next[a.Name] = st.assign[i]
	}
	c.assign = next
}
