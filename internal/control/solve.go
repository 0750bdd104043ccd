package control

import (
	"fmt"
	"time"

	"dynplace/internal/cluster"
	"dynplace/internal/core"
	"dynplace/internal/obs"
	"dynplace/internal/scheduler"
	"dynplace/internal/shard"
	"dynplace/internal/txn"
)

// solver is the build-and-solve core of the decide half: it turns the
// offered nodes, the web applications with their carried placement and
// the live batch jobs into one core.Problem and solves it, flat or
// through the shard coordinator. The Planner and the APC policy both
// decide through it, so policy mode and dynamic mode cannot drift apart.
type solver struct {
	dyn DynamicConfig
	// coord is the sharded placement coordinator, engaged when dyn asks
	// for at least one shard; nil means every cycle is one flat
	// placement problem.
	coord *shard.Coordinator
}

// newSolver validates the shard count and builds the coordinator it
// asks for.
func newSolver(dyn DynamicConfig) (*solver, error) {
	s := &solver{dyn: dyn}
	if dyn.Shards < 0 {
		return nil, fmt.Errorf("%w: negative shard count %d", ErrBadConfig, dyn.Shards)
	}
	if dyn.Shards >= 1 {
		coord, err := shard.New(shard.Config{Count: dyn.Shards, Seed: dyn.ShardSeed})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		s.coord = coord
	}
	return s, nil
}

// solution is one solved cycle. Problem and result number nodes densely;
// ids maps each dense index back to its inventory ID.
type solution struct {
	problem *core.Problem
	res     *core.Result
	ids     []cluster.NodeID
	// jobs are the live jobs, which follow the web apps in problem.Apps.
	jobs []*scheduler.Job
	// shards holds the per-zone stats of a sharded solve; nil when flat.
	shards []shard.Stats
}

// solve places one cycle at time now. nodes are the offered nodes, each
// carrying its inventory ID. web and webPlacement are parallel: each web
// app as the optimizer should see it and its carried placement in
// inventory IDs (IDs not offered are dropped). jobs are the live batch
// jobs. It records the build_problem span and then the solve span, or
// the shard spans when sharding is on.
func (s *solver) solve(ct *obs.CycleTrace, now, cycle float64, costs cluster.CostModel,
	nodes []cluster.Node, web []*txn.App, webPlacement [][]cluster.NodeID, jobs []*scheduler.Job) (*solution, error) {
	cl, err := cluster.New(nodes...)
	if err != nil {
		return nil, err
	}
	endBuild := ct.Span("build_problem")
	sol := &solution{ids: make([]cluster.NodeID, len(nodes)), jobs: jobs}
	toDense := make(map[cluster.NodeID]cluster.NodeID, len(nodes))
	for i, n := range nodes {
		sol.ids[i] = n.ID
		toDense[n.ID] = cluster.NodeID(i)
	}
	n := len(web) + len(jobs)
	p := &core.Problem{
		Cluster:     cl,
		Now:         now,
		Cycle:       cycle,
		Apps:        make([]*core.Application, 0, n),
		Current:     core.NewPlacement(n),
		LastNode:    make([]cluster.NodeID, n),
		Costs:       costs,
		Epsilon:     s.dyn.Epsilon,
		MaxPasses:   s.dyn.MaxPasses,
		Parallelism: s.dyn.Parallelism,
	}
	// place carries app idx's instance on inventory node nd into the
	// current placement, unless nd is not offered (or NoNode).
	place := func(idx int, nd cluster.NodeID) {
		if dense, ok := toDense[nd]; ok {
			p.Current.Add(idx, dense)
		}
	}
	for i, w := range web {
		p.Apps = append(p.Apps, &core.Application{
			Name: w.Name, Kind: core.KindWeb, Web: w, AntiCollocate: w.AntiCollocate,
		})
		p.LastNode[i] = -1
		for _, nd := range webPlacement[i] {
			place(i, nd)
		}
	}
	for k, j := range jobs {
		idx := len(web) + k
		p.Apps = append(p.Apps, &core.Application{
			Name: j.Spec.Name, Kind: core.KindBatch,
			Job: j.Spec, Done: j.Done, Started: j.Started,
			AntiCollocate: j.Spec.AntiCollocate,
		})
		last, ok := toDense[j.LastNode]
		if !ok {
			last = -1
		}
		p.LastNode[idx] = last
		place(idx, j.Node)
	}
	sol.problem = p
	endBuild()
	if s.coord != nil {
		solveStart := ct.Elapsed()
		sol.res, sol.shards, err = s.coord.Solve(p)
		if err == nil {
			addShardSpans(ct, solveStart, s.coord.Timings(), sol.shards)
		}
	} else {
		endSolve := ct.Span("solve")
		sol.res, err = core.Optimize(p)
		endSolve()
	}
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// assignments maps the solved batch placement back onto the live jobs:
// each placed job runs on its inventory node at its allocated speed;
// jobs without an entry are to be suspended or stay queued.
func (sol *solution) assignments() []scheduler.Assignment {
	nWeb := len(sol.problem.Apps) - len(sol.jobs)
	var out []scheduler.Assignment
	for k, j := range sol.jobs {
		idx := nWeb + k
		nodes := sol.res.Placement.NodesOf(idx)
		if len(nodes) == 0 {
			continue
		}
		out = append(out, scheduler.Assignment{
			Job:      j,
			Node:     sol.ids[nodes[0]],
			SpeedMHz: sol.res.Eval.PerApp[idx],
		})
	}
	return out
}

// addShardSpans reconstructs the sharded solve's concurrent timeline
// as trace spans: the rebalance-and-partition prologue, each zone's
// solve (zones overlap in time), and the merge/verify epilogue.
// solveStart is the coordinator call's offset from the cycle start.
func addShardSpans(ct *obs.CycleTrace, solveStart time.Duration, t shard.Timings, stats []shard.Stats) {
	if ct == nil {
		return
	}
	ct.AddSpan("shard_rebalance", solveStart, t.Rebalance)
	for s, st := range stats {
		var off time.Duration
		if s < len(t.ZoneStart) {
			off = t.ZoneStart[s]
		}
		ct.AddSpan(fmt.Sprintf("zone_solve:%d", s), solveStart+off,
			time.Duration(st.SolveMillis*float64(time.Millisecond)))
	}
	ct.AddSpan("merge_verify", ct.Elapsed()-t.Merge, t.Merge)
}
