package core

import (
	"fmt"
	"slices"
	"testing"

	"dynplace/internal/cluster"
)

// TestGeneratedCandidatesFit is the contract that lets a candidate's
// evaluation skip the memory scan: every placement the generators build
// from a feasible incumbent passes the full scan, memoryFits. It runs a
// whole pass's candidates on 300 randomized problems, checks that the
// problems exercise both of greedyFill's refusals — an addable app that
// does not fit the memory left, and one that fits it but is
// anti-collocated with a resident or an earlier pick — and then a node
// whose footprints straddle its capacity: summed residents first, as a
// running total would, they fit; summed in ascending application order,
// as memoryFits does, they do not.
func TestGeneratedCandidatesFit(t *testing.T) {
	var al allocator
	fitsAll := func(tbl *table, pl *Placement) bool {
		al.aim(tbl, pl)
		return al.memoryFits()
	}
	var seedsWithConflicts, memRefusals, conflictRefusals, cands int
	for seed := int64(0); seed < 300; seed++ {
		p := randomProblem(t, seed)
		ctx, generated := passCandidates(t, p)
		for i, cand := range generated {
			if !fitsAll(ctx.t, cand) {
				t.Fatalf("seed %d: candidate %d of %d does not fit", seed, i, len(generated))
			}
		}
		cands += len(generated)
		if ctx.t.conflicts {
			seedsWithConflicts++
		}
		m, c := fillRefusals(t, ctx)
		memRefusals += m
		conflictRefusals += c
	}
	summary := fmt.Sprintf("%d candidates on 300 seeds: %d seeds with conflicts, %d memory refusals, %d conflict refusals",
		cands, seedsWithConflicts, memRefusals, conflictRefusals)
	if seedsWithConflicts == 0 || memRefusals == 0 || conflictRefusals == 0 {
		t.Fatal(summary + "; want each > 0")
	}
	t.Log(summary)

	// Node 0 holds apps 5 and 6; app 1 is a queued job. Apps 0, 2, 3
	// and 4 are small jobs on node 1.
	const nodeMem = 11692.776999999
	footprint := []float64{1000, 3316.766, 1000, 1000, 1000, 4213.603, 4162.408}
	if running, ascending := footprint[5]+footprint[6]+footprint[1],
		footprint[1]+footprint[5]+footprint[6]; running > nodeMem+capTolerance || ascending <= nodeMem+capTolerance {
		t.Fatalf("footprints no longer straddle the capacity: running sum %v, ascending %v, node %v",
			running, ascending, nodeMem)
	}
	cl, err := cluster.Uniform(2, 100000, nodeMem)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, len(footprint))
	cur := NewPlacement(len(apps))
	for i, mem := range footprint {
		apps[i] = batchApp(string(rune('a'+i)), 1e6, 3000, mem, 0, 5000)
		switch i {
		case 1:
		case 5, 6:
			apps[i].Started = true
			cur.Add(i, 0)
		default:
			apps[i].Started = true
			cur.Add(i, 1)
		}
	}
	p := &Problem{Cluster: cl, Now: 100, Cycle: 600, Apps: apps, Current: cur,
		Costs: cluster.DefaultCostModel()}
	ctx, generated := passCandidates(t, p)
	for i, cand := range generated {
		if !fitsAll(ctx.t, cand) {
			t.Fatalf("straddling node: candidate %d of %d does not fit", i, len(generated))
		}
	}
	best, err := ctx.evaluate(new(arena), nil)
	if err != nil {
		t.Fatal(err)
	}
	addable := slices.Clone(ctx.addableApps(best, 0))
	if !slices.Contains(addable, 1) {
		t.Fatalf("app 1 is not addable on node 0: %v", addable)
	}
	with := ctx.base.Clone()
	with.Add(1, 0)
	if picked, fits := slices.Contains(ctx.greedyFill(0, nil, addable), 1), fitsAll(ctx.t, with); picked != fits {
		t.Fatalf("straddling node: greedyFill picks app 1 = %v, memoryFits = %v", picked, fits)
	}
}

// fillRefusals replays greedyFill on every node of ctx's incumbent, at
// every removal depth, and classifies each addable app it passes over
// before the fill is full: one that does not fit the memory left is a
// memory refusal, one that fits it but conflicts with a resident kept
// or an earlier pick a conflict refusal. A refusal that is neither
// fails the test.
func fillRefusals(t *testing.T, ctx *evalContext) (memory, conflict int) {
	t.Helper()
	tbl := ctx.t
	best, err := ctx.evaluate(new(arena), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := range tbl.nodeCaps {
		node := cluster.NodeID(n)
		res := ctx.residents.on(node)
		addable := slices.Clone(ctx.addableApps(best, node))
		for k := 0; k <= len(res); k++ {
			picks := ctx.greedyFill(node, res[:k], addable)
			kept := slices.Clone(res[k:])
			next := 0
			for _, idx := range addable {
				if next == maxAddsPerNode {
					break
				}
				if next < len(picks) && picks[next] == idx {
					kept = append(kept, idx)
					next++
					continue
				}
				mem := tbl.apps[idx].mem
				for _, app := range kept {
					mem += tbl.apps[app].mem
				}
				switch {
				case mem > tbl.nodeMem[n]+capTolerance:
					memory++
				case slices.ContainsFunc(kept, func(app int) bool { return tbl.conflict(idx, app) }):
					conflict++
				default:
					t.Fatalf("node %d, %d residents removed: greedyFill refused app %d, which fits beside %v",
						n, k, idx, kept)
				}
			}
			if next != len(picks) {
				t.Fatalf("node %d: picks %v are not in addable order %v", n, picks, addable)
			}
		}
	}
	return memory, conflict
}
