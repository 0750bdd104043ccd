package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/flow"
)

// cutInstance draws a routing instance for the cut test: k web apps on
// 1–40 shared hosts with random overlap and random capacities (integral
// half the time, so sums are exact and a cut can be met exactly), about
// half of the hosts carrying a job whose load leaves a residual that may
// be zero or negative, and one more node that carries only a job. The
// returned allocator is aimed at it with those loads in place; residual
// holds each web host's capacity as the network sees it.
func cutInstance(t *testing.T, rng *rand.Rand, k int) (al *allocator, residual []float64) {
	t.Helper()
	hosts := 1 + rng.Intn(40)
	integral := rng.Intn(2) == 0
	nodes := make([]cluster.Node, hosts+1)
	for n := range nodes {
		cpu := float64(500 + rng.Intn(9500))
		if !integral {
			cpu = 1 + rng.Float64()*1e4
		}
		nodes[n] = cluster.Node{CPUMHz: cpu, MemMB: 1 << 20}
	}
	cl, err := cluster.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*Application, 0, k+hosts+1)
	for i := 0; i < k; i++ {
		apps = append(apps, webApp(fmt.Sprintf("web-%d", i)))
	}
	sets := make([]int, hosts)
	for n := range sets {
		sets[n] = 1 + rng.Intn(1<<k-1)
	}
	for i := 0; i < k; i++ {
		if !hasHost(sets, i) {
			n := rng.Intn(hosts)
			sets[n] |= 1 << i
		}
	}
	var jobNodes []int
	for n := 0; n <= hosts; n++ {
		if n == hosts || rng.Intn(2) == 0 {
			jobNodes = append(jobNodes, n)
			spec := batch.SingleStage(fmt.Sprintf("job-%d", n), 1e6, 100, 1000, 0, 1e5)
			apps = append(apps, &Application{Name: spec.Name, Kind: KindBatch, Job: spec})
		}
	}
	pl := NewPlacement(len(apps))
	for n, set := range sets {
		for i := 0; i < k; i++ {
			if set&(1<<i) != 0 {
				pl.Add(i, cluster.NodeID(n))
			}
		}
	}
	for j, n := range jobNodes {
		pl.Add(k+j, cluster.NodeID(n))
	}
	p := &Problem{Cluster: cl, Now: 0, Cycle: 600, Apps: apps, Costs: cluster.FreeCostModel()}
	tbl := new(table)
	tbl.build(p)
	al = new(allocator)
	al.aim(tbl, pl)
	residual = make([]float64, hosts)
	for n := range residual {
		residual[n] = nodes[n].CPUMHz
	}
	for _, n := range jobNodes {
		load := 0.0
		switch rng.Intn(4) {
		case 0: // exactly full
			load = nodes[n].CPUMHz
		case 1: // overloaded: a negative residual
			load = nodes[n].CPUMHz * (1 + rng.Float64())
		case 2:
			load = nodes[n].CPUMHz * rng.Float64()
		}
		if integral {
			load = math.Floor(load)
		}
		al.nodeLoad[n] = load
		if n < hosts {
			residual[n] = max(0, nodes[n].CPUMHz-load)
		}
	}
	return al, residual
}

func hasHost(sets []int, app int) bool {
	for _, set := range sets {
		if set&(1<<app) != 0 {
			return true
		}
	}
	return false
}

// cutDemands draws the demand vectors one instance is probed with, all
// around its minimum cut: each host's residual split among its apps (so
// the demands route exactly, and the whole app set is a tight cut), that
// scaled down and up, and one app's demand moved off it by ±1 ulp,
// ±tol, tol ± a few ulps of the total, and to +Inf.
func cutDemands(rng *rand.Rand, al *allocator, residual []float64, integral bool) [][]float64 {
	k := len(al.webs)
	tight := make([]float64, k)
	for n, r := range residual {
		var members []int
		for i, app := range al.webs {
			if al.pl.Has(app, cluster.NodeID(n)) {
				members = append(members, i)
			}
		}
		left := r
		for j, i := range members {
			share := left
			if j < len(members)-1 {
				share = left * rng.Float64()
				if integral {
					share = math.Floor(share)
				}
			}
			tight[i] += share
			left -= share
		}
	}
	var out [][]float64
	with := func(f func(d []float64)) {
		d := append([]float64(nil), tight...)
		f(d)
		out = append(out, d)
	}
	with(func([]float64) {})
	for _, scale := range []float64{0.5, 1 - 1e-9, 1 + 1e-9, 2} {
		with(func(d []float64) {
			for i := range d {
				d[i] *= scale
			}
		})
	}
	const tol = capTolerance * 1000
	var total float64
	for _, d := range tight {
		total += d
	}
	ulp := math.Nextafter(total, math.Inf(1)) - total
	j := rng.Intn(k)
	for _, delta := range []float64{
		math.Nextafter(tight[j], math.Inf(1)) - tight[j], math.Nextafter(tight[j], math.Inf(-1)) - tight[j],
		tol, -tol, tol - ulp, tol + ulp, tol + 2*ulp, tol + 4*ulp, tol * (1 + 1e-3), 2 * tol,
		(rng.Float64() - 0.5) * 1e-3, (rng.Float64() - 0.5) * 100,
	} {
		with(func(d []float64) { d[j] = max(0, d[j]+delta) })
	}
	with(func(d []float64) { d[j] = math.Inf(1) })
	return out
}

// TestCutDecisionAgreesWithMaxFlow: wherever the cut condition settles a
// multi-web probe, its answer is the max-flow's, routeWeb(...) ≥
// totalWeb − tol. Instances have 2 to maxCutWebs web apps on 1–40 shared
// hosts, with and without job load, and their demands sit on, just off
// and far from the minimum cut. Both kinds of probe must occur: ones the
// cut settles, each way, and ones it leaves to the max-flow.
func TestCutDecisionAgreesWithMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const tol = capTolerance * 1000
	var settled [2]int
	band := 0
	for inst := 0; inst < 1500; inst++ {
		k := 2 + inst%(maxCutWebs-1)
		al, residual := cutInstance(t, rng, k)
		integral := true
		for _, r := range residual {
			integral = integral && r == math.Floor(r)
		}
		for _, demand := range cutDemands(rng, al, residual, integral) {
			copy(al.webDemand, demand)
			var totalWeb float64 // summed in webs order, as feasible does
			for _, d := range demand {
				totalWeb += d
			}
			ok, decided := al.cutDecide(totalWeb, tol)
			if !decided {
				band++
				continue
			}
			if want := al.routes(totalWeb, tol); ok != want {
				t.Fatalf("instance %d (%d web apps, %d hosts), demands %v: cut decided %v, max-flow routes %v",
					inst, k, len(residual), demand, ok, want)
			}
			if ok {
				settled[1]++
			} else {
				settled[0]++
			}
		}
	}
	if settled[0] == 0 || settled[1] == 0 || band == 0 {
		t.Fatalf("settled %d infeasible and %d feasible, %d in the band: want every kind", settled[0], settled[1], band)
	}
}

// TestRouteEpsIsFlowEps pins routeEps, the residual cutDecide's bound is
// written in, to the flow package's eps: an edge of capacity routeEps
// carries nothing, and one a little wider carries its capacity.
func TestRouteEpsIsFlowEps(t *testing.T) {
	for _, tc := range []struct {
		capacity float64
		routed   bool
	}{
		{routeEps, false},
		{routeEps * (1 + 1e-6), true},
	} {
		g := flow.NewNetwork(2)
		if _, err := g.AddEdge(0, 1, tc.capacity); err != nil {
			t.Fatal(err)
		}
		got, err := g.MaxFlow(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if (got > 0) != tc.routed {
			t.Fatalf("an edge of capacity %v routes %v: flow's eps is not routeEps", tc.capacity, got)
		}
	}
}

// TestVerifyIncrementalCatchesWrongCut: under VerifyIncremental every
// probe the cut condition settles is re-run through the max-flow, so a
// single wrong decision makes Optimize fail. The full Evaluate that
// checks each incremental evaluation takes the same cut path, so
// comparing the two could not see it.
func TestVerifyIncrementalCatchesWrongCut(t *testing.T) {
	p, _ := allocProblem(t, 3)
	p.VerifyIncremental = true
	p.Parallelism = 1 // cutFault's counter is not synchronised
	settled := 0
	cutFault = func() bool { settled++; return false }
	defer func() { cutFault = nil }()
	if _, err := Optimize(p); err != nil {
		t.Fatalf("without a wrong decision: %v", err)
	}
	if settled == 0 {
		t.Fatal("no probe was settled by the cut condition")
	}
	for _, wrong := range []int{1, settled / 2, settled} {
		n := 0
		cutFault = func() bool { n++; return n == wrong }
		_, err := Optimize(p)
		if err == nil || !strings.Contains(err.Error(), "cut condition") {
			t.Fatalf("decision %d of %d inverted: Optimize returned %v, want the cut cross-check's error", wrong, settled, err)
		}
	}
}
