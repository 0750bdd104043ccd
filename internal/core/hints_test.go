package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/rpf"
)

// passCandidates repairs p's input placement, rebases a fresh
// evaluation context on it and returns the context with every candidate
// an optimization pass generates against that incumbent, each made into
// a placement: the web-expansion set and each node's configurations.
func passCandidates(t *testing.T, p *Problem) (*evalContext, []*Placement) {
	t.Helper()
	tbl := new(table)
	tbl.build(p)
	base := p.Current.Clone()
	if _, err := repair(tbl, base); err != nil {
		t.Fatalf("repair: %v", err)
	}
	ctx := &evalContext{t: tbl}
	ar := new(arena)
	ctx.rebase(base, nil)
	best, err := ctx.evaluate(ar, nil)
	if err != nil || !best.Feasible {
		t.Fatalf("incumbent: feasible=%v err=%v", best != nil && best.Feasible, err)
	}
	ctx.rebase(base, best.brackets)
	edits := ctx.webExpansionCandidates(best)
	for n := range tbl.nodeCaps {
		edits = ctx.candidatesForNode(best, cluster.NodeID(n), edits)
	}
	cands := make([]*Placement, len(edits))
	for i, e := range edits {
		cands[i] = ctx.placement(e)
	}
	return ctx, cands
}

// hintedSolve is one allocation solve of pl under the given level-search
// hints, with the brackets it recorded.
type hintedSolve struct {
	ok       bool
	perApp   []float64
	shares   map[int][]float64
	brackets [][2]float64
	probes   int
}

func solveHinted(t *testing.T, al *allocator, tbl *table, pl *Placement, hints [][2]float64) hintedSolve {
	t.Helper()
	al.aim(tbl, pl)
	al.hints = hints
	perApp, shares, ok, err := al.solve(false)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return hintedSolve{ok, perApp, shares, slices.Clone(al.brackets), al.probes}
}

// sameSolve reports how got differs from want bit for bit, or "".
func sameSolve(got, want hintedSolve) string {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	switch {
	case got.ok != want.ok:
		return fmt.Sprintf("feasible %v, unhinted %v", got.ok, want.ok)
	case !bits(got.perApp, want.perApp):
		return fmt.Sprintf("PerApp %v, unhinted %v", got.perApp, want.perApp)
	case len(got.shares) != len(want.shares):
		return fmt.Sprintf("shares for %d web apps, unhinted %d", len(got.shares), len(want.shares))
	case !slices.Equal(got.brackets, want.brackets):
		return fmt.Sprintf("brackets %v, unhinted %v", got.brackets, want.brackets)
	}
	for app, w := range want.shares {
		if !bits(got.shares[app], w) {
			return fmt.Sprintf("web app %d shares %v, unhinted %v", app, got.shares[app], w)
		}
	}
	return ""
}

// TestLevelHintsNeverChangeTheSolve is the exactness contract of the
// hinted level search: whatever the hints hold — the incumbent's
// brackets, the candidate's own, random levels, a bracket one ulp off,
// infinities, NaN, too few or too many rounds — every candidate of an
// optimization pass solves to the unhinted allocations and web shares
// bit for bit, at no more than the six ladder probes per round beyond
// the unhinted search. From its own bracket, when that lies at or below
// table.monotoneTo, a level search costs at most two probes.
func TestLevelHintsNeverChangeTheSolve(t *testing.T) {
	type named struct {
		name string
		p    *Problem
	}
	var problems []named
	for seed := int64(1); seed <= 30; seed++ {
		problems = append(problems, named{fmt.Sprintf("seed %d", seed), randomProblem(t, seed)})
	}
	problems = append(problems,
		named{"mixed", goldenMixed(t)},
		named{"batch_contended", goldenBatchContended(t)},
		named{"memory_tight", goldenMemoryTight(t)})

	rng := rand.New(rand.NewSource(34))
	randomLevel := func() float64 { return rpf.MinUtility + rng.Float64()*(1-rpf.MinUtility) }
	nan, inf := math.NaN(), math.Inf(1)
	var al allocator
	for _, pr := range problems {
		ctx, cands := passCandidates(t, pr.p)
		for ci, cand := range cands {
			want := solveHinted(t, &al, ctx.t, cand, nil)
			truth := want.brackets
			each := func(f func(b [2]float64) [2]float64) [][2]float64 {
				out := make([][2]float64, len(truth))
				for r, b := range truth {
					out[r] = f(b)
				}
				return out
			}
			sets := []struct {
				name  string
				hints [][2]float64
			}{
				{"incumbent", ctx.hints},
				{"own", truth},
				{"random", each(func([2]float64) [2]float64 { return [2]float64{randomLevel(), randomLevel()} })},
				{"widened 1 ulp", each(func(b [2]float64) [2]float64 {
					return [2]float64{math.Nextafter(b[0], -inf), math.Nextafter(b[1], inf)}
				})},
				{"narrowed 1 ulp", each(func(b [2]float64) [2]float64 {
					return [2]float64{math.Nextafter(b[0], inf), math.Nextafter(b[1], -inf)}
				})},
				{"infinities", each(func([2]float64) [2]float64 { return [2]float64{-inf, inf} })},
				{"reversed infinities", each(func([2]float64) [2]float64 { return [2]float64{inf, -inf} })},
				{"NaN", each(func([2]float64) [2]float64 { return [2]float64{nan, nan} })},
				{"NaN beside the bracket", each(func(b [2]float64) [2]float64 { return [2]float64{nan, b[1]} })},
				{"empty", [][2]float64{}},
				{"short", truth[:len(truth)/2]},
				{"long", append(slices.Clone(truth), [2]float64{randomLevel(), randomLevel()}, [2]float64{1, 1})},
			}
			rounds := len(truth)
			for _, set := range sets {
				got := solveHinted(t, &al, ctx.t, cand, set.hints)
				if diff := sameSolve(got, want); diff != "" {
					t.Fatalf("%s, candidate %d, %s hints: %s", pr.name, ci, set.name, diff)
				}
				if got.probes > want.probes+6*rounds {
					t.Errorf("%s, candidate %d, %s hints: %d probes over %d rounds, unhinted %d",
						pr.name, ci, set.name, got.probes, rounds, want.probes)
				}
			}
			if len(truth) == 0 || truth[0][1] > ctx.t.monotoneTo {
				continue // no level search ran, or probes above monotoneTo settle nothing
			}
			// The first round alone, where the test can count the level
			// search's own probes: the exact bracket settles it in two.
			al.aim(ctx.t, cand)
			al.hints = truth
			before := al.probes
			if level := al.level(); level != truth[0][0] {
				t.Fatalf("%s, candidate %d: first level %v under its own bracket, unhinted %v", pr.name, ci, level, truth[0][0])
			}
			if n := al.probes - before; n > 2 {
				t.Errorf("%s, candidate %d: %d probes to search the first level from its own bracket %v, want at most 2",
					pr.name, ci, n, truth[0])
			}
		}
	}
}

// TestLevelHintsAroundUnboundedWebBand pins the one place where demand
// is not monotone in the level. An unbounded web app (MaxPowerMHz 0)
// needs more than its webMax between MaxDemand's level, webCap−1e-3, and
// webCap, and webMax again from webCap on. Here a job shares one node
// with such an app, so levels just below webCap are infeasible and
// webCap is feasible. Whether the unhinted search ends inside the band
// or above webCap, hints on either side of the band must not move it.
func TestLevelHintsAroundUnboundedWebBand(t *testing.T) {
	for _, tc := range []struct {
		spare  float64 // node MHz beyond the web app's webMax
		inBand bool    // whether the unhinted level lies in the band
	}{{5040, true}, {8000, false}} {
		w := webApp("w")
		w.Web.ArrivalRate = 10
		w.Web.MaxPowerMHz = 0
		j := batchApp("j", 1e6, 1e5, 750, 0, 1000)
		cl, err := cluster.Uniform(1, w.Web.MaxDemand()+tc.spare, 4000)
		if err != nil {
			t.Fatalf("Uniform: %v", err)
		}
		p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{w, j}, Costs: cluster.FreeCostModel()}
		pl := NewPlacement(2)
		pl.Add(0, 0)
		pl.Add(1, 0)
		var tbl table
		tbl.build(p)
		webCap := tbl.apps[0].webCap
		var al allocator
		want := solveHinted(t, &al, &tbl, pl, nil)
		al.aim(&tbl, pl)
		if !want.ok || !al.feasible(webCap, -1) || al.feasible(webCap-probeDelta/2, -1) {
			t.Fatalf("spare %v: the instance no longer has an infeasible band below a feasible webCap", tc.spare)
		}
		level := want.brackets[0][0]
		inBand := level > webCap-1e-3 && level < webCap
		if tc.inBand && !inBand || !tc.inBand && level <= webCap {
			t.Fatalf("spare %v: unhinted level %v, band (%v, %v)", tc.spare, level, webCap-1e-3, webCap)
		}
		sets := [][][2]float64{
			{{webCap, 1}},
			{{webCap, webCap + probeDelta}},
			{{math.Nextafter(webCap, 2), 1}},
			{{webCap - probeDelta/2, webCap - probeDelta/2}},
			{{webCap - probeDelta/2, 1}},
		}
		for _, hints := range sets {
			if diff := sameSolve(solveHinted(t, &al, &tbl, pl, hints), want); diff != "" {
				t.Errorf("spare %v, hints %v: %s", tc.spare, hints, diff)
			}
		}
		// The instance must need table.monotoneTo: without it some hint
		// set moves the search across the band.
		tbl.monotoneTo = math.Inf(1)
		moved := false
		for _, hints := range sets {
			moved = moved || sameSolve(solveHinted(t, &al, &tbl, pl, hints), want) != ""
		}
		if !moved {
			t.Errorf("spare %v: no hint set moves the search with the band unguarded; the instance does not exercise it", tc.spare)
		}
	}
}
