package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, g *Network, u, v int, c float64) EdgeRef {
	t.Helper()
	ref, err := g.AddEdge(u, v, c)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, c, err)
	}
	return ref
}

func TestSimplePath(t *testing.T) {
	g := NewNetwork(3)
	mustEdge(t, g, 0, 1, 5)
	mustEdge(t, g, 1, 2, 3)
	got, err := g.MaxFlow(0, 2)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if got != 3 {
		t.Fatalf("MaxFlow = %v, want 3", got)
	}
}

func TestClassicDiamond(t *testing.T) {
	// s=0, a=1, b=2, t=3. Two disjoint paths of 10 and 5, plus a cross
	// edge enabling 3 more.
	g := NewNetwork(4)
	mustEdge(t, g, 0, 1, 10)
	mustEdge(t, g, 0, 2, 5)
	mustEdge(t, g, 1, 3, 5)
	mustEdge(t, g, 1, 2, 15)
	mustEdge(t, g, 2, 3, 10)
	got, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if got != 15 {
		t.Fatalf("MaxFlow = %v, want 15", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewNetwork(4)
	mustEdge(t, g, 0, 1, 10)
	mustEdge(t, g, 2, 3, 10)
	got, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if got != 0 {
		t.Fatalf("MaxFlow = %v, want 0", got)
	}
}

func TestValidation(t *testing.T) {
	g := NewNetwork(2)
	if _, err := g.AddEdge(0, 5, 1); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad vertex: err = %v", err)
	}
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 1, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN capacity accepted")
	}
	e := mustEdge(t, g, 0, 1, 1)
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := g.SetCapacity(e, c); err == nil {
			t.Fatalf("SetCapacity accepted capacity %v", c)
		}
	}
	for _, ref := range []EdgeRef{{from: 5}, {from: -1}, {from: 0, idx: 1}, {from: 0, idx: -1}} {
		if err := g.SetCapacity(ref, 1); !errors.Is(err, ErrBadVertex) {
			t.Fatalf("SetCapacity(%+v): err = %v", ref, err)
		}
	}
	if _, err := g.MaxFlow(0, 0); err == nil {
		t.Fatal("source==sink accepted")
	}
	if _, err := g.MaxFlow(-1, 1); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad source: err = %v", err)
	}
}

func TestEdgeFlowReadback(t *testing.T) {
	g := NewNetwork(3)
	e01 := mustEdge(t, g, 0, 1, 7)
	e12 := mustEdge(t, g, 1, 2, 4)
	if _, err := g.MaxFlow(0, 2); err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if got := g.Flow(e01); got != 4 {
		t.Fatalf("Flow(0->1) = %v, want 4", got)
	}
	if got := g.Flow(e12); got != 4 {
		t.Fatalf("Flow(1->2) = %v, want 4", got)
	}
}

func TestResetAndRetune(t *testing.T) {
	g := NewNetwork(3)
	e01 := mustEdge(t, g, 0, 1, 7)
	mustEdge(t, g, 1, 2, 4)
	if _, err := g.MaxFlow(0, 2); err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if err := g.SetCapacity(e01, 2); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	g.Reset()
	got, err := g.MaxFlow(0, 2)
	if err != nil {
		t.Fatalf("MaxFlow after retune: %v", err)
	}
	if got != 2 {
		t.Fatalf("MaxFlow after retune = %v, want 2", got)
	}
}

func TestFlowsConservation(t *testing.T) {
	g := NewNetwork(5)
	mustEdge(t, g, 0, 1, 8)
	mustEdge(t, g, 0, 2, 3)
	mustEdge(t, g, 1, 3, 5)
	mustEdge(t, g, 2, 3, 5)
	mustEdge(t, g, 1, 2, 4)
	mustEdge(t, g, 3, 4, 9)
	total, err := g.MaxFlow(0, 4)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	checkConservation(t, g, 0, 4, total)
}

// checkConservation verifies flow conservation at every interior vertex
// and that net outflow of s equals total.
func checkConservation(t *testing.T, g *Network, s, sink int, total float64) {
	t.Helper()
	net := make(map[int]float64)
	for _, ef := range g.Flows() {
		if ef.Flow < -1e-9 || ef.Flow > ef.Cap+1e-9 {
			t.Fatalf("edge %d->%d flow %v outside [0, %v]", ef.From, ef.To, ef.Flow, ef.Cap)
		}
		net[ef.From] += ef.Flow
		net[ef.To] -= ef.Flow
	}
	for v, n := range net {
		switch v {
		case s:
			if math.Abs(n-total) > 1e-6 {
				t.Fatalf("source net outflow %v, want %v", n, total)
			}
		case sink:
			if math.Abs(n+total) > 1e-6 {
				t.Fatalf("sink net inflow %v, want %v", -n, total)
			}
		default:
			if math.Abs(n) > 1e-6 {
				t.Fatalf("vertex %d violates conservation by %v", v, n)
			}
		}
	}
}

// bruteForceMaxFlow computes max flow on tiny integer-capacity graphs with
// repeated BFS augmentation (Edmonds-Karp), as an independent oracle.
func bruteForceMaxFlow(n int, caps map[[2]int]float64, s, t int) float64 {
	residual := make([][]float64, n)
	for i := range residual {
		residual[i] = make([]float64, n)
	}
	for k, c := range caps {
		residual[k[0]][k[1]] += c
	}
	var total float64
	for {
		// BFS for augmenting path.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue := []int{s}
		for len(queue) > 0 && parent[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if parent[v] == -1 && residual[u][v] > 1e-9 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] == -1 {
			return total
		}
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parent[v] {
			bottleneck = math.Min(bottleneck, residual[parent[v]][v])
		}
		for v := t; v != s; v = parent[v] {
			residual[parent[v]][v] -= bottleneck
			residual[v][parent[v]] += bottleneck
		}
		total += bottleneck
	}
}

// Property: Dinic agrees with Edmonds-Karp on random small graphs, and the
// returned flow obeys conservation and capacity bounds.
func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		g := NewNetwork(n)
		caps := make(map[[2]int]float64)
		edges := rng.Intn(n * n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(rng.Intn(10))
			if _, err := g.AddEdge(u, v, c); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			caps[[2]int{u, v}] += c
		}
		s, sink := 0, n-1
		got, err := g.MaxFlow(s, sink)
		if err != nil {
			t.Fatalf("MaxFlow: %v", err)
		}
		want := bruteForceMaxFlow(n, caps, s, sink)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: Dinic = %v, Edmonds-Karp = %v", trial, got, want)
		}
		checkConservation(t, g, s, sink, got)
	}
}

// bipartite is the allocation solver's network shape: source → apps →
// the hosts each app is placed on → sink. hosts[a] lists app a's host
// indices; capacities are app demands (on the source edge and every host
// edge of the app) and host room (on the sink edges).
type bipartite struct {
	hosts  [][]int
	nHosts int
}

func (s bipartite) size() int { return 2 + len(s.hosts) + s.nHosts }

// build adds s's edges to an empty network in the solver's order (per
// app its source edge then its host edges, then the sink edges) and
// appends their refs to refs.
func (s bipartite) build(g *Network, refs []EdgeRef, demand, room []float64) ([]EdgeRef, error) {
	add := func(u, v int, c float64) error {
		ref, err := g.AddEdge(u, v, c)
		refs = append(refs, ref)
		return err
	}
	apps, sink := len(s.hosts), s.size()-1
	for a, hs := range s.hosts {
		if err := add(0, 1+a, demand[a]); err != nil {
			return nil, err
		}
		for _, h := range hs {
			if err := add(1+a, 1+apps+h, demand[a]); err != nil {
				return nil, err
			}
		}
	}
	for h := 0; h < s.nHosts; h++ {
		if err := add(1+apps+h, sink, room[h]); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// capacitate sets capacities on a network build produced, in the same
// order, and zeroes its flow.
func (s bipartite) capacitate(g *Network, refs []EdgeRef, demand, room []float64) error {
	k := 0
	for a, hs := range s.hosts {
		for range 1 + len(hs) {
			if err := g.SetCapacity(refs[k], demand[a]); err != nil {
				return err
			}
			k++
		}
	}
	for h := 0; h < s.nHosts; h++ {
		if err := g.SetCapacity(refs[k], room[h]); err != nil {
			return err
		}
		k++
	}
	g.Reset()
	return nil
}

// TestReusedNetworkMatchesFresh: a network that is cleared to shape after
// shape, and re-capacitated several times within each, routes exactly as
// a fresh build of the same edges and capacities — the same total and the
// same flow on every edge, bit for bit.
func TestReusedNetworkMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	capacity := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return rng.Float64() * 3000
	}
	reused := new(Network)
	var grew, shrank int
	for trial := 0; trial < 400; trial++ {
		s := bipartite{hosts: make([][]int, 1+rng.Intn(8)), nHosts: 1 + rng.Intn(10)}
		for a := range s.hosts {
			s.hosts[a] = rng.Perm(s.nHosts)[:1+rng.Intn(min(3, s.nHosts))]
		}
		switch n := s.size(); {
		case n > reused.Size():
			grew++
		case n < reused.Size():
			shrank++
		}
		reused.Clear(s.size())
		if reused.Size() != s.size() {
			t.Fatalf("trial %d: Clear(%d) left %d vertices", trial, s.size(), reused.Size())
		}
		demand, room := make([]float64, len(s.hosts)), make([]float64, s.nHosts)
		refs, err := s.build(reused, nil, demand, room)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 4; run++ {
			for a := range demand {
				demand[a] = capacity()
			}
			for h := range room {
				room[h] = capacity()
			}
			if err := s.capacitate(reused, refs, demand, room); err != nil {
				t.Fatal(err)
			}
			fresh := NewNetwork(s.size())
			freshRefs, err := s.build(fresh, nil, demand, room)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.MaxFlow(0, s.size()-1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.MaxFlow(0, s.size()-1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d run %d: reused network routes %v, fresh %v", trial, run, got, want)
			}
			for k := range refs {
				if g, w := reused.Flow(refs[k]), fresh.Flow(freshRefs[k]); g != w {
					t.Fatalf("trial %d run %d: edge %d carries %v, fresh %v", trial, run, k, g, w)
				}
			}
			gotFlows, wantFlows := reused.Flows(), fresh.Flows()
			if len(gotFlows) != len(wantFlows) {
				t.Fatalf("trial %d run %d: %d forward edges, fresh %d", trial, run, len(gotFlows), len(wantFlows))
			}
			for k := range gotFlows {
				if gotFlows[k] != wantFlows[k] {
					t.Fatalf("trial %d run %d: edge %+v, fresh %+v", trial, run, gotFlows[k], wantFlows[k])
				}
			}
		}
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("Clear grew the network %d times and shrank it %d times; want both", grew, shrank)
	}
}

// TestClearSameShapeAllocatesNothing: rebuilding and running a network of
// the shape it last had reuses all of its storage.
func TestClearSameShapeAllocatesNothing(t *testing.T) {
	s := bipartite{hosts: [][]int{{0, 1}, {1, 2}, {2, 3, 0}}, nHosts: 4}
	demand, room := []float64{900, 1200, 700}, []float64{500, 800, 600, 400}
	g := new(Network)
	var refs []EdgeRef
	run := func() {
		g.Clear(s.size())
		var err error
		if refs, err = s.build(g, refs[:0], demand, room); err != nil {
			t.Fatal(err)
		}
		if _, err := g.MaxFlow(0, s.size()-1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("Clear and rebuild to the same shape allocates %v objects, want 0", allocs)
	}
}

// BenchmarkBipartiteAllocationShape runs the allocation solver's shape —
// source → 60 apps → instances on 25 nodes → sink — as the solver once
// did on every probe (build, a fresh network per run) and as it does now
// (reuse, SetCapacity and Reset on one network).
func BenchmarkBipartiteAllocationShape(b *testing.B) {
	const apps, nodes = 60, 25
	s := bipartite{hosts: make([][]int, apps), nHosts: nodes}
	demand, room := make([]float64, apps), make([]float64, nodes)
	for a := range s.hosts {
		s.hosts[a] = []int{a % nodes, (a + 7) % nodes}
		demand[a] = 1000
	}
	for n := range room {
		room[n] = 2500
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewNetwork(s.size())
			if _, err := s.build(g, nil, demand, room); err != nil {
				b.Fatal(err)
			}
			if _, err := g.MaxFlow(0, s.size()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		g := NewNetwork(s.size())
		refs, err := s.build(g, nil, demand, room)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := s.capacitate(g, refs, demand, room); err != nil {
				b.Fatal(err)
			}
			if _, err := g.MaxFlow(0, s.size()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
