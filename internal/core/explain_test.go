package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dynplace/internal/cluster"
)

// wantDecision asserts an AppDecision's outcome/binding pair and that
// its reason chain closes with the canonical "binding constraint" line
// when a constraint bound.
func wantDecision(t *testing.T, d AppDecision, outcome, binding string) {
	t.Helper()
	if d.Outcome != outcome {
		t.Fatalf("outcome = %q (reasons %v), want %q", d.Outcome, d.Reasons, outcome)
	}
	if d.Binding != binding {
		t.Fatalf("binding = %q (reasons %v), want %q", d.Binding, d.Reasons, binding)
	}
	if binding == "" {
		return
	}
	if len(d.Reasons) == 0 {
		t.Fatalf("no reasons recorded for %s/%s", outcome, binding)
	}
	if last := d.Reasons[len(d.Reasons)-1]; last != "binding constraint: "+binding {
		t.Fatalf("last reason = %q, want %q", last, "binding constraint: "+binding)
	}
}

func TestExplainDeniedMemory(t *testing.T) {
	cl, err := cluster.Uniform(2, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	hog := batchApp("hog", 4000, 1000, 8192, 0, 30)
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{hog},
		Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	if res.Placement.Placed(0) {
		t.Fatalf("an 8192 MB job fit a 4000 MB node: %v", res.Placement.NodesOf(0))
	}
	ex := Explain(p, res, nil)
	d := ex.Decisions[0]
	wantDecision(t, d, OutcomeDenied, BindMemory)
	if !strings.Contains(d.Reasons[0], "8192 MB") || !strings.Contains(d.Reasons[0], "short by") {
		t.Errorf("memory diagnosis lacks size and shortfall: %q", d.Reasons[0])
	}
}

func TestExplainDeniedAntiCollocation(t *testing.T) {
	// One node, a conflicting pair: whichever application loses must be
	// diagnosed as blocked by the resident conflictor, not by capacity.
	cl, err := cluster.Uniform(1, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	a := batchApp("a", 4000, 1000, 750, 0, 30)
	b := batchApp("b", 4000, 1000, 750, 0, 30)
	a.AntiCollocate = []string{"b"}
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{a, b},
		Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	ex := Explain(p, res, nil)
	denied, placed := -1, -1
	for i, d := range ex.Decisions {
		switch d.Outcome {
		case OutcomeDenied:
			denied = i
		case OutcomePlaced:
			placed = i
		}
	}
	if denied < 0 || placed < 0 {
		t.Fatalf("want one placed and one denied, got %+v", ex.Decisions)
	}
	d := ex.Decisions[denied]
	wantDecision(t, d, OutcomeDenied, BindAntiCollocation)
	winner := p.Apps[placed].Name
	if !strings.Contains(d.Reasons[0], `"`+winner+`"`) {
		t.Errorf("diagnosis should name the conflictor %q: %q", winner, d.Reasons[0])
	}
}

// checkProbedLevel re-probes a utility-bound denial on a fresh arena:
// the adopted placement plus the denied app on the node its reason names,
// every other placed app frozen at its adopted allocation. The level the
// decision reports, Utility + UtilityDelta, must be feasible there and,
// unless it is the app's utility cap, infeasible probeDelta above.
func checkProbedLevel(t *testing.T, p *Problem, res *Result, d AppDecision) {
	t.Helper()
	probe := cluster.NodeID(-1)
	for _, nd := range p.Cluster.Nodes() {
		if strings.HasPrefix(d.Reasons[0], "an instance on "+nd.Name+" ") {
			probe = nd.ID
		}
	}
	if probe < 0 {
		t.Fatalf("app %d: reason names no probe node: %q", d.App, d.Reasons[0])
	}
	cand := res.Placement.Clone()
	cand.Add(d.App, probe)
	ar := new(arena)
	ar.tbl.build(p)
	al := &ar.al
	al.aim(&ar.tbl, cand)
	for _, placed := range [][]int{al.jobs, al.webs} {
		for _, other := range placed {
			if other != d.App {
				al.freeze(other, res.Eval.PerApp[other])
			}
		}
	}
	level := d.Utility + d.UtilityDelta
	if !al.feasible(level, -1) {
		t.Errorf("app %d: reported level %v on %s is infeasible", d.App, level, nodeName(p, probe))
	}
	if capU := ar.tbl.utilityCap(d.App); math.Abs(level-capU) > capTolerance &&
		al.feasible(level+probeDelta, -1) {
		t.Errorf("app %d: level %v + %v on %s is still feasible (cap %v): the search stopped short",
			d.App, level, probeDelta, nodeName(p, probe), capU)
	}
}

// TestExplainDeniedUtility: a denial that fits memory, collocation and
// CPU floors binds on utility, and the level it reports is the one the
// probe reached, to the solver's precision. One node holds two of three
// identical-speed jobs at full CPU; the third is denied. Seeded random
// instances add utility-bound denials under the default cost model.
func TestExplainDeniedUtility(t *testing.T) {
	cl, err := cluster.Uniform(1, 3000, 16384)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	var apps []*Application
	for i := 0; i < 3; i++ {
		apps = append(apps, batchApp(fmt.Sprintf("j%d", i), 40000, 1500, 3000, 0, 30+10*float64(i)))
	}
	p := &Problem{Cluster: cl, Cycle: 1, Apps: apps, Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	d := Explain(p, res, nil).Decisions[2]
	wantDecision(t, d, OutcomeDenied, BindUtility)
	checkProbedLevel(t, p, res, d)

	denials := 0
	for seed := int64(1); seed <= 30; seed++ {
		p := randomProblem(t, seed)
		res := mustOptimize(t, p)
		for _, d := range Explain(p, res, nil).Decisions {
			if d.Outcome == OutcomeDenied && d.Binding == BindUtility {
				denials++
				checkProbedLevel(t, p, res, d)
			}
		}
	}
	if denials == 0 {
		t.Fatal("no seeded instance produced a utility-bound denial")
	}
}

// TestProbeUtilityReachesAdoptedLevel pins a case the explain probe once
// got wrong by ~2.4e5: with a web app and a job sharing one node at the
// max-min level, probing the adopted placement for either app must find
// that level again, with the other app frozen and with nothing frozen.
func TestProbeUtilityReachesAdoptedLevel(t *testing.T) {
	cl, err := cluster.Uniform(1, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	w := webApp("w")
	w.Web.ArrivalRate = 30
	j := batchApp("j", 40000, 1500, 750, 0, 30)
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{w, j},
		Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	const adopted = -2.7234
	for app, u := range res.Eval.Utilities {
		if math.Abs(u-adopted) > 1e-3 {
			t.Fatalf("app %d adopted utility = %v, want %v", app, u, adopted)
		}
	}
	for _, r := range []*Result{res, {Placement: res.Placement}} {
		for app := range p.Apps {
			x := explainer{p: p, res: r, ar: new(arena)}
			ok, u := x.probeUtility(res.Placement, app)
			if !ok || math.Abs(u-adopted) > 1e-3 {
				t.Errorf("probeUtility(app %d, frozen %t) = %t, %v; want true, %v",
					app, r.Eval != nil, ok, u, adopted)
			}
		}
	}
}

func TestExplainPlacedThenKept(t *testing.T) {
	cl, err := cluster.Uniform(2, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	a := batchApp("a", 4000, 1000, 750, 0, 30)
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{a},
		Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	ex := Explain(p, res, nil)
	wantDecision(t, ex.Decisions[0], OutcomePlaced, "")
	if len(ex.Decisions[0].Reasons) == 0 ||
		!strings.HasPrefix(ex.Decisions[0].Reasons[0], "placed on ") {
		t.Errorf("placed reason = %v, want a node list", ex.Decisions[0].Reasons)
	}

	p.Current = res.Placement
	res2 := mustOptimize(t, p)
	ex2 := Explain(p, res2, []float64{ex.Decisions[0].Utility})
	wantDecision(t, ex2.Decisions[0], OutcomeKept, "")
	if delta := ex2.Decisions[0].UtilityDelta; math.Abs(delta) > 0.5 {
		t.Errorf("steady-state utility delta = %v, want near zero", delta)
	}
}

func TestExplainIdle(t *testing.T) {
	cl, err := cluster.Uniform(1, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	done := batchApp("done", 4000, 1000, 750, 0, 30)
	done.Done = 4000 // the job has completed all its work
	quiet := webApp("quiet")
	quiet.Web.ArrivalRate = 0
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{done, quiet},
		Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	ex := Explain(p, res, nil)
	for i := range ex.Decisions {
		wantDecision(t, ex.Decisions[i], OutcomeIdle, "")
	}
}

func TestExplainMovedByAntiCollocation(t *testing.T) {
	// The carried placement violates the collocation rule (both jobs on
	// node-0); repair evicts a and the optimizer re-places it on node-1.
	// The diagnosis must blame the conflictor left behind, not capacity.
	cl, err := cluster.Uniform(2, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	a := batchApp("a", 4000, 1000, 750, 0, 30)
	b := batchApp("b", 4000, 1000, 750, 0, 30)
	a.AntiCollocate = []string{"b"}
	cur := NewPlacement(2)
	cur.Add(0, 0)
	cur.Add(1, 0)
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{a, b},
		Current: cur, Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	if !res.Repaired {
		t.Fatal("violating placement not repaired")
	}
	if !res.Placement.Placed(0) || !res.Placement.Placed(1) {
		t.Fatalf("both jobs fit on separate nodes: a=%v b=%v",
			res.Placement.NodesOf(0), res.Placement.NodesOf(1))
	}
	ex := Explain(p, res, nil)
	moved := -1
	for i, d := range ex.Decisions {
		if d.Outcome == OutcomeMoved {
			moved = i
		}
	}
	if moved < 0 {
		t.Fatalf("no moved decision after repair: %+v", ex.Decisions)
	}
	d := ex.Decisions[moved]
	wantDecision(t, d, OutcomeMoved, BindAntiCollocation)
	stayed := p.Apps[1-moved].Name
	found := false
	for _, r := range d.Reasons {
		if strings.Contains(r, `"`+stayed+`"`) && strings.Contains(r, "collocate") {
			found = true
		}
	}
	if !found {
		t.Errorf("move diagnosis should name the conflictor %q: %v", stayed, d.Reasons)
	}
}

func TestExplainEvictedByRepair(t *testing.T) {
	// The input placement is physically impossible (8192 MB instance on
	// a 4000 MB node); repair evicts it and the explanation says why.
	cl, err := cluster.Uniform(1, 2000, 4000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	hog := batchApp("hog", 4000, 1000, 8192, 0, 30)
	cur := NewPlacement(1)
	cur.Add(0, 0)
	p := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{hog},
		Current: cur, Costs: cluster.FreeCostModel()}
	res := mustOptimize(t, p)
	if res.Placement.Placed(0) {
		t.Fatal("impossible instance survived repair")
	}
	ex := Explain(p, res, nil)
	if !ex.Repaired {
		t.Error("Explanation.Repaired = false after a repairing solve")
	}
	wantDecision(t, ex.Decisions[0], OutcomeEvicted, BindMemory)
}

// The footprints of TestGeneratedCandidatesFit's straddling node: summed
// in ascending order (straddleMem[0] first) they overflow straddleNodeMB
// by about 2e-9 MB, above capTolerance; summed with the last one first,
// they fit.
const straddleNodeMB = 11692.776999999

var straddleMem = [3]float64{4213.603, 3316.766, 4162.408}

func checkStraddle(t *testing.T) {
	t.Helper()
	m := straddleMem
	if asc, lastFirst := m[0]+m[1]+m[2], m[2]+m[0]+m[1]; asc <= straddleNodeMB+capTolerance ||
		lastFirst > straddleNodeMB+capTolerance {
		t.Fatalf("footprints no longer straddle %v MB: ascending %v, last first %v",
			straddleNodeMB, asc, lastFirst)
	}
}

// TestExplainDeniedStraddlingNode: jobs 0 and 1 run on the only node and
// job 2 is queued. The solver sums the three in ascending order, finds
// them over the node's memory and denies job 2, so Explain must report
// memory — not a feasible probe the solver would reject.
func TestExplainDeniedStraddlingNode(t *testing.T) {
	checkStraddle(t)
	cl, err := cluster.Uniform(1, 100000, straddleNodeMB)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, len(straddleMem))
	cur := NewPlacement(len(apps))
	for i, mem := range straddleMem {
		apps[i] = batchApp(fmt.Sprintf("j%d", i), 1e6, 3000, mem, 0, 5000)
		if i < 2 {
			apps[i].Started = true
			cur.Add(i, 0)
		}
	}
	p := &Problem{Cluster: cl, Now: 100, Cycle: 600, Apps: apps, Current: cur,
		Costs: cluster.DefaultCostModel()}
	res := mustOptimize(t, p)
	if res.Placement.Placed(2) || !res.Placement.Has(0, 0) || !res.Placement.Has(1, 0) {
		t.Fatalf("want jobs 0 and 1 kept and job 2 denied, got %v %v %v",
			res.Placement.NodesOf(0), res.Placement.NodesOf(1), res.Placement.NodesOf(2))
	}
	d := Explain(p, res, nil).Decisions[2]
	wantDecision(t, d, OutcomeDenied, BindMemory)
	if want := "closest is node-0, short by 0 MB"; !strings.Contains(d.Reasons[0], want) {
		t.Errorf("reason %q lacks %q", d.Reasons[0], want)
	}
}

// TestExplainMovedStraddlingNode: web apps 0 and 1, pinned to node-1,
// and job 2 all sit there, over its memory in the solver's ascending
// sum. Repair evicts the job (batch before web) and the optimizer moves
// it to node-0. Staying on node-1 is the straddling sum again, so the
// move binds on memory. The empty node comes first on purpose: visited
// first, the straddling node's candidate that swaps w0 out for the job
// wins, and no single-node candidate then undoes that eviction.
func TestExplainMovedStraddlingNode(t *testing.T) {
	checkStraddle(t)
	cl, err := cluster.New(
		cluster.Node{CPUMHz: 100000, MemMB: 5000},
		cluster.Node{CPUMHz: 100000, MemMB: straddleNodeMB})
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, len(straddleMem))
	cur := NewPlacement(len(apps))
	for i, mem := range straddleMem {
		if i < 2 {
			apps[i] = webApp(fmt.Sprintf("w%d", i))
			apps[i].Web.MemoryMB = mem
			apps[i].PinnedNodes = []cluster.NodeID{1}
		} else {
			apps[i] = batchApp("j", 1e6, 3000, mem, 0, 5000)
			apps[i].Started = true
		}
		cur.Add(i, 1)
	}
	p := &Problem{Cluster: cl, Now: 100, Cycle: 600, Apps: apps, Current: cur,
		Costs: cluster.DefaultCostModel()}
	res := mustOptimize(t, p)
	if !res.Repaired {
		t.Fatal("the straddling node was not repaired")
	}
	d := Explain(p, res, nil).Decisions[2]
	wantDecision(t, d, OutcomeMoved, BindMemory)
	if want := "staying on node-1 now overflows memory by 0 MB"; !slices.Contains(d.Reasons, want) {
		t.Errorf("reasons %v lack %q", d.Reasons, want)
	}
}

func TestOutcomeAndBindingSetsAreClosed(t *testing.T) {
	// The exported slices drive metric pre-registration; they must cover
	// every constant exactly once.
	seen := map[string]bool{}
	for _, o := range Outcomes {
		if seen[o] {
			t.Errorf("duplicate outcome %q", o)
		}
		seen[o] = true
	}
	for _, want := range []string{OutcomePlaced, OutcomeKept, OutcomeMoved,
		OutcomeExpanded, OutcomeShrunk, OutcomeEvicted, OutcomeDenied, OutcomeIdle} {
		if !seen[want] {
			t.Errorf("Outcomes missing %q", want)
		}
	}
	seen = map[string]bool{}
	for _, b := range Bindings {
		if seen[b] {
			t.Errorf("duplicate binding %q", b)
		}
		seen[b] = true
	}
	for _, want := range []string{BindMemory, BindAntiCollocation,
		BindCPUCapacity, BindFlowCapacity, BindPins, BindUtility} {
		if !seen[want] {
			t.Errorf("Bindings missing %q", want)
		}
	}
}
