// Package flow implements Dinic's maximum-flow algorithm on small dense
// graphs. The allocation solver uses it as a feasibility oracle: a
// candidate utility level is feasible iff the demand of every application
// can be routed through its placed instances into node CPU capacities.
//
// A network is built once and run many times. The solver builds one per
// candidate placement (Clear, then AddEdge per edge) and re-capacitates it
// before each of the candidate's feasibility probes (SetCapacity per edge,
// then Reset). A run on a re-capacitated network sees the same edges in
// the same order as a fresh build with those capacities, so it does the
// same float arithmetic and returns the same flows, bit for bit.
//
// Capacities are float64 because CPU demands are fractional MHz; an
// epsilon guards against float round-off in residual comparisons.
package flow

import (
	"errors"
	"fmt"
	"math"
)

// eps is the smallest capacity treated as routable.
const eps = 1e-9

type edge struct {
	to      int
	cap     float64
	flow    float64
	rev     int // index of the paired edge in adj[to]
	forward bool
}

// EdgeRef identifies an edge added with AddEdge so its capacity can be
// updated and its flow read back without rebuilding the network.
type EdgeRef struct {
	from, idx int
}

// Network is a flow network. Vertices are dense ints.
type Network struct {
	adj     [][]edge
	level   []int
	iter    []int
	current []int // BFS queue scratch
}

// ErrBadVertex reports an out-of-range vertex.
var ErrBadVertex = errors.New("flow: vertex out of range")

// NewNetwork creates a network with n vertices and no edges.
func NewNetwork(n int) *Network {
	return &Network{adj: make([][]edge, n)}
}

// Clear empties the network to n vertices and no edges. Each vertex keeps
// its edge storage, so rebuilding a network of the same or a smaller
// shape (no vertex with more edges than it had before) allocates nothing.
// The zero Network is ready for Clear.
func (g *Network) Clear(n int) {
	if n > cap(g.adj) {
		g.adj = append(g.adj[:cap(g.adj)], make([][]edge, n-cap(g.adj))...)
	}
	g.adj = g.adj[:n]
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
}

// Size returns the vertex count.
func (g *Network) Size() int { return len(g.adj) }

// AddEdge adds a directed edge from u to v with the given capacity and
// returns a reference usable with SetCapacity and Flow. Negative, NaN or
// infinite capacities are rejected, as are self-loops.
func (g *Network) AddEdge(u, v int, capacity float64) (EdgeRef, error) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return EdgeRef{}, fmt.Errorf("%w: edge %d->%d in graph of %d", ErrBadVertex, u, v, len(g.adj))
	}
	if u == v {
		return EdgeRef{}, fmt.Errorf("flow: self-loop on vertex %d", u)
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return EdgeRef{}, fmt.Errorf("flow: invalid capacity %v on edge %d->%d", capacity, u, v)
	}
	g.adj[u] = append(g.adj[u], edge{to: v, cap: capacity, rev: len(g.adj[v]), forward: true})
	g.adj[v] = append(g.adj[v], edge{to: u, cap: 0, rev: len(g.adj[u]) - 1})
	return EdgeRef{from: u, idx: len(g.adj[u]) - 1}, nil
}

// SetCapacity updates the capacity of a previously added edge. Existing
// flow is untouched; call Reset before re-running MaxFlow after retuning.
func (g *Network) SetCapacity(ref EdgeRef, capacity float64) error {
	if ref.from < 0 || ref.from >= len(g.adj) || ref.idx < 0 || ref.idx >= len(g.adj[ref.from]) {
		return fmt.Errorf("%w: bad edge ref %+v", ErrBadVertex, ref)
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("flow: invalid capacity %v", capacity)
	}
	g.adj[ref.from][ref.idx].cap = capacity
	return nil
}

// Reset zeroes all flow, keeping the topology, so the network can be
// reused for another run.
func (g *Network) Reset() {
	for u := range g.adj {
		for i := range g.adj[u] {
			g.adj[u][i].flow = 0
		}
	}
}

func (g *Network) bfs(s, t int) bool {
	if len(g.level) < len(g.adj) {
		g.level = make([]int, len(g.adj))
		g.current = make([]int, 0, len(g.adj))
	}
	for i := range g.level {
		g.level[i] = -1
	}
	g.current = g.current[:0]
	g.level[s] = 0
	g.current = append(g.current, s)
	for head := 0; head < len(g.current); head++ {
		u := g.current[head]
		for _, e := range g.adj[u] {
			if e.cap-e.flow > eps && g.level[e.to] < 0 {
				g.level[e.to] = g.level[u] + 1
				g.current = append(g.current, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *Network) dfs(u, t int, pushed float64) float64 {
	if u == t {
		return pushed
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		e := &g.adj[u][g.iter[u]]
		if e.cap-e.flow > eps && g.level[e.to] == g.level[u]+1 {
			d := g.dfs(e.to, t, math.Min(pushed, e.cap-e.flow))
			if d > eps {
				e.flow += d
				g.adj[e.to][e.rev].flow -= d
				return d
			}
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow and leaves the flow assignment on
// the edges for inspection via Flow and Flows.
func (g *Network) MaxFlow(s, t int) (float64, error) {
	if s < 0 || s >= len(g.adj) || t < 0 || t >= len(g.adj) {
		return 0, fmt.Errorf("%w: s=%d t=%d n=%d", ErrBadVertex, s, t, len(g.adj))
	}
	if s == t {
		return 0, errors.New("flow: source equals sink")
	}
	var total float64
	if len(g.iter) < len(g.adj) {
		g.iter = make([]int, len(g.adj))
	}
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			pushed := g.dfs(s, t, math.Inf(1))
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total, nil
}

// Flow returns the flow routed over a specific edge after MaxFlow.
func (g *Network) Flow(ref EdgeRef) float64 {
	if ref.from < 0 || ref.from >= len(g.adj) || ref.idx < 0 || ref.idx >= len(g.adj[ref.from]) {
		return 0
	}
	f := g.adj[ref.from][ref.idx].flow
	if f < 0 {
		return 0
	}
	return f
}

// EdgeFlow describes the flow routed over one forward edge.
type EdgeFlow struct {
	From, To int
	Cap      float64
	Flow     float64
}

// Flows returns the flow on every forward edge after MaxFlow.
func (g *Network) Flows() []EdgeFlow {
	var out []EdgeFlow
	for u, edges := range g.adj {
		for _, e := range edges {
			if !e.forward {
				continue
			}
			f := e.flow
			if f < 0 {
				f = 0
			}
			out = append(out, EdgeFlow{From: u, To: e.to, Cap: e.cap, Flow: f})
		}
	}
	return out
}
