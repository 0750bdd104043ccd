package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/store"
)

// fuzzBytes reads a placement pair out of fuzz input; once the input
// runs out every read returns zero.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// edgeFloats are the values where encoding/json's float format
// changes or fails: the 'f'/'e' switches at 1e-6 and 1e21, the e-0N
// trim, -0, the extremes, NaN and ±Inf.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
	-1e21, 1e-7, 5e-324, math.MaxFloat64, 123456789.125, -0.5,
	math.NaN(), math.Inf(1), math.Inf(-1), 1e-10,
}

// float reads a selector byte: below 16 an edge value, below 128 a
// plain multiple of 12.5, otherwise the next 8 bytes as float64 bits.
func (r *fuzzBytes) float() float64 {
	switch s := r.byte(); {
	case s < 16:
		return edgeFloats[s]
	case s < 128:
		return float64(s) * 12.5
	default:
		var b [8]byte
		for i := range b {
			b[i] = r.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
}

// string reads a length byte (mod 16) and that many raw bytes, so names
// can hold control bytes and invalid UTF-8.
func (r *fuzzBytes) string() string {
	n := int(r.byte() % 16)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.byte())
	}
	return string(out)
}

func (r *fuzzBytes) node() NodeView {
	return NodeView{
		Name: r.string(), State: r.string(), CPUMHz: r.float(), MemMB: r.float(),
		WebInstances: int(int8(r.byte())), Jobs: int(int8(r.byte())),
	}
}

// placementPair decodes a previous snapshot and the one published after
// it. The current snapshot's nodes are the previous ones edited: each
// edit keeps, changes, inserts or removes a node, so nodes shift
// between the two.
func placementPair(data []byte) (prev, cur *PlacementSnapshot) {
	r := &fuzzBytes{b: data}
	prev = &PlacementSnapshot{
		Cycle: int64(r.byte()), Time: r.float(), OmegaGMHz: r.float(),
		Web: []WebPlacementView{}, Jobs: []JobPlacementView{},
		Err: r.string(), InstanceChanges: int(r.byte()),
	}
	for i := int(r.byte() % 3); i > 0; i-- {
		w := WebPlacementView{Name: r.string(), ArrivalRate: r.float(), AllocMHz: r.float(), Utility: r.float(), Instances: []InstanceView{}}
		for k := int(r.byte() % 3); k > 0; k-- {
			w.Instances = append(w.Instances, InstanceView{Node: r.string(), PowerMHz: r.float()})
		}
		prev.Web = append(prev.Web, w)
	}
	for i := int(r.byte() % 3); i > 0; i-- {
		prev.Jobs = append(prev.Jobs, JobPlacementView{
			Name: r.string(), Status: r.string(), Node: r.string(), SpeedMHz: r.float(),
			DoneMcycles: r.float(), TotalMcycles: r.float(), Utility: r.float(), Deadline: r.float(),
		})
	}
	n := int(r.byte() % 12)
	prev.Nodes = make([]NodeView, 0, n)
	for i := 0; i < n; i++ {
		prev.Nodes = append(prev.Nodes, r.node())
	}

	next := *prev
	next.Cycle++
	next.Nodes = append([]NodeView{}, prev.Nodes...)
	for edits := int(r.byte() % 8); edits > 0; edits-- {
		op, at := r.byte()%4, int(r.byte())
		switch {
		case op == 1 && len(next.Nodes) > 0:
			next.Nodes[at%len(next.Nodes)] = r.node()
		case op == 2:
			at %= len(next.Nodes) + 1
			next.Nodes = append(next.Nodes[:at], append([]NodeView{r.node()}, next.Nodes[at:]...)...)
		case op == 3 && len(next.Nodes) > 0:
			at %= len(next.Nodes)
			next.Nodes = append(next.Nodes[:at], next.Nodes[at+1:]...)
		}
	}
	return prev, &next
}

// checkEncoding fails unless p's encoding is json.Marshal's, errors
// exactly when json.Marshal does, and locates every node's object.
func checkEncoding(t *testing.T, what string, p *published) {
	t.Helper()
	want, wantErr := json.Marshal(p.snap)
	got, err := p.encoded()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: encode error %v, json.Marshal error %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: encoded\n%q\njson.Marshal\n%q", what, got.Bytes(), want)
	}
	if p.nodes == nil {
		return
	}
	for i := range p.snap.Nodes {
		obj, err := json.Marshal(p.snap.Nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		if at := p.nodes.b[p.nodes.off[i] : p.nodes.off[i+1]-1]; !bytes.Equal(at, obj) {
			t.Fatalf("%s: node %d located at %q, want %q", what, i, at, obj)
		}
	}
}

// FuzzPlacementEncoding holds the incremental encoder to json.Marshal
// byte for byte: a placement encoded from scratch, and the one
// published after it encoded from its predecessor's bytes.
func FuzzPlacementEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, cur := placementPair(data)
		p := &published{snap: prev}
		checkEncoding(t, "previous", p)
		q := p.next(cur)
		if (q.prev != nil) != (p.nodes != nil) {
			t.Fatalf("predecessor kept %v, previous encoding located %v", q.prev != nil, p.nodes != nil)
		}
		checkEncoding(t, "current", q)
		if q.prev != nil {
			t.Fatal("predecessor kept after the encode")
		}
	})
}

// encodeDaemon builds a durable daemon over nodes nodes journaling into
// dir, recovered and ready to run cycles.
func encodeDaemon(t *testing.T, dir string, nodes int) (*Daemon, *SimClock) {
	t.Helper()
	cl, err := cluster.Uniform(nodes, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{
		Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: clock,
		Store: st, SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	return d, clock
}

// changedNodes counts the views of cur that differ from prev's at the
// same index.
func changedNodes(prev, cur []NodeView) int {
	n := 0
	for i := range cur {
		if i >= len(prev) || prev[i] != cur[i] {
			n++
		}
	}
	return n
}

// TestPlacementEncodeReusesUnchangedNodes: on a 1 000-node durable
// daemon the first cycle encodes every node, each later cycle exactly
// the nodes whose view changed (none on a quiet cycle), and the first
// cycle after Recover every node again, since a restored placement
// locates no nodes.
func TestPlacementEncodeReusesUnchangedNodes(t *testing.T) {
	const nodes = 1000
	dir := t.TempDir()
	d, clock := encodeDaemon(t, dir, nodes)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(0)
	if got := d.placement.Load().reencoded; got != nodes {
		t.Fatalf("first cycle re-encoded %d nodes, want %d", got, nodes)
	}

	quiet := 0
	steps := []func(){
		func() {},
		func() {
			if err := d.DrainNode("node-500"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := d.FailNode("node-7"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			// Every node after the removed one shifts down an index.
			if err := d.RemoveNode("node-7"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := d.AddNode("spare", 2500, 2048); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := d.SubmitJob(dynplace.JobSpec{
				Name: "late", WorkMcycles: 60000, MaxSpeedMHz: 3000, MemoryMB: 1000, Deadline: 7200,
			}, true); err != nil {
				t.Fatal(err)
			}
		},
		func() {},
		func() {},
	}
	for i, step := range steps {
		prev := d.placement.Load().snap
		step()
		clock.Advance(60)
		p := d.placement.Load()
		if p.snap == prev {
			t.Fatalf("step %d: no cycle ran", i)
		}
		want := changedNodes(prev.Nodes, p.snap.Nodes)
		t.Logf("step %d: cycle %d re-encoded %d", i, p.snap.Cycle, p.reencoded)
		if p.reencoded != want {
			t.Fatalf("step %d (cycle %d): re-encoded %d nodes, %d changed", i, p.snap.Cycle, p.reencoded, want)
		}
		if want == 0 {
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("no cycle left every node unchanged")
	}
	d.Stop()

	d2, clock2 := encodeDaemon(t, dir, nodes)
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	clock2.Advance(0)
	if got, want := d2.placement.Load().reencoded, len(d2.Placement().Nodes); got != want || want != nodes {
		t.Fatalf("first cycle after Recover re-encoded %d of %d nodes, want all %d", got, want, nodes)
	}
}

// TestPublishedKeepsAtMostOnePredecessor: a store-less daemon that
// nobody reads encodes nothing, so no placement keeps its predecessor;
// one read now and then lets the next placement keep the read one until
// its own encode, never more.
func TestPublishedKeepsAtMostOnePredecessor(t *testing.T) {
	cl, err := cluster.Uniform(50, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock()
	d, err := New(Config{Cluster: cl, CycleSeconds: 60, Costs: cluster.FreeCostModel(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	loadWorkload(t, d)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 40; cycle++ {
		clock.Advance(60)
		p := d.placement.Load()
		if p.prev != nil && p.prev.prev != nil {
			t.Fatalf("cycle %d: placement keeps two predecessors", p.snap.Cycle)
		}
		if cycle <= 20 && p.prev != nil {
			t.Fatalf("cycle %d: unread placements chained", p.snap.Cycle)
		}
		if cycle > 20 && cycle%3 == 0 {
			if _, err := p.encoded(); err != nil {
				t.Fatal(err)
			}
			if p.prev != nil {
				t.Fatalf("cycle %d: predecessor kept after the encode", p.snap.Cycle)
			}
		}
	}
}

// TestPlacementEncodeUnderConcurrentReads: readers encode placements
// while cycles publish their successors, so next() and the encode meet
// on one placement from two goroutines; every encoding is still
// json.Marshal's.
func TestPlacementEncodeUnderConcurrentReads(t *testing.T) {
	d := placementDaemon(t, 200)
	clock := d.clock().(*SimClock)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := d.placement.Load()
				got, err := p.encoded()
				if err != nil {
					t.Error(err)
					return
				}
				if want, _ := json.Marshal(p.snap); !bytes.Equal(got.Bytes(), want) {
					t.Errorf("cycle %d: encoding differs from json.Marshal", p.snap.Cycle)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if i%10 == 5 {
			if _, err := d.AddNode(fmt.Sprintf("extra-%d", i), 2500, 2048); err != nil {
				t.Error(err)
			}
		}
		clock.Advance(60)
	}
	close(stop)
	wg.Wait()
}

// syntheticSnapshot is a 10 000-node, 400-job placement shaped like a
// sharded cycle's: 16 web apps on 25 nodes each.
func syntheticSnapshot() *PlacementSnapshot {
	snap := &PlacementSnapshot{Cycle: 42, Time: 2520, OmegaGMHz: 1234567.5, InventoryVersion: 3}
	for a := 0; a < 16; a++ {
		w := WebPlacementView{Name: fmt.Sprintf("web-%d", a), ArrivalRate: 100 + float64(a), AllocMHz: 35000.25, Utility: 0.4375}
		for k := 0; k < 25; k++ {
			w.Instances = append(w.Instances, InstanceView{Node: fmt.Sprintf("z%02d-n%05d", a, a*625+k*25), PowerMHz: 1400.125})
		}
		snap.Web = append(snap.Web, w)
	}
	for j := 0; j < 400; j++ {
		snap.Jobs = append(snap.Jobs, JobPlacementView{
			Name: fmt.Sprintf("job-%d", j), Status: "running", Node: fmt.Sprintf("z%02d-n%05d", j%16, j*25),
			SpeedMHz: 2500, DoneMcycles: float64(j) * 1234.5, TotalMcycles: 600000, Utility: 0.21875, Deadline: 7200,
		})
	}
	for i := 0; i < 10000; i++ {
		snap.Nodes = append(snap.Nodes, NodeView{
			Name: fmt.Sprintf("z%02d-n%05d", i/625, i), State: "active", CPUMHz: 3000, MemMB: 4096,
			WebInstances: i % 3, Jobs: i % 2,
		})
	}
	return snap
}

var encodeSink []byte

// BenchmarkPlacementEncode encodes a 10 000-node, 400-job placement:
// from scratch, and from the previous encoding with 50 nodes changed.
// json.Marshal of the same snapshot is the baseline both replace.
func BenchmarkPlacementEncode(b *testing.B) {
	prev := syntheticSnapshot()
	_, list, _, err := encodePlacement(prev, nil)
	if err != nil {
		b.Fatal(err)
	}
	cur := *prev
	cur.Cycle++
	cur.Nodes = append([]NodeView{}, prev.Nodes...)
	for i := 0; i < 50; i++ {
		cur.Nodes[i*199].Jobs++
	}
	b.Run("json.Marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encodeSink, _ = json.Marshal(&cur)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encodeSink, _, _, _ = encodePlacement(&cur, nil)
		}
	})
	b.Run("changed=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int
			encodeSink, _, n, _ = encodePlacement(&cur, list)
			if n != 50 {
				b.Fatalf("re-encoded %d nodes, want 50", n)
			}
		}
	})
}
