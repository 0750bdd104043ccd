package cluster

import (
	"errors"
	"math"
	"testing"
)

func TestNewAssignsIDsAndNames(t *testing.T) {
	c, err := New(
		Node{CPUMHz: 1000, MemMB: 2000},
		Node{Name: "big", CPUMHz: 15600, MemMB: 16384},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	n0, ok := c.Node(0)
	if !ok || n0.Name != "node-0" || n0.ID != 0 {
		t.Fatalf("Node(0) = %+v, ok=%v", n0, ok)
	}
	n1, ok := c.Node(1)
	if !ok || n1.Name != "big" || n1.ID != 1 {
		t.Fatalf("Node(1) = %+v, ok=%v", n1, ok)
	}
	if _, ok := c.Node(2); ok {
		t.Fatal("Node(2) should not exist")
	}
	if _, ok := c.Node(-1); ok {
		t.Fatal("Node(-1) should not exist")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Node{CPUMHz: 0, MemMB: 10}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("zero CPU: err = %v, want ErrBadNode", err)
	}
	if _, err := New(Node{CPUMHz: 10, MemMB: -1}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("negative memory: err = %v, want ErrBadNode", err)
	}
	if _, err := Uniform(0, 1, 1); !errors.Is(err, ErrBadNode) {
		t.Fatalf("zero count: err = %v, want ErrBadNode", err)
	}
}

func TestUniformTotals(t *testing.T) {
	// Experiment One's cluster: 25 nodes, 4 CPUs at 3.9 GHz, 16 GB.
	c, err := Uniform(25, 4*3900, 16384)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	if got, want := c.TotalCPU(), 390000.0; got != want {
		t.Fatalf("TotalCPU = %v, want %v", got, want)
	}
	if got, want := c.TotalMem(), 25*16384.0; got != want {
		t.Fatalf("TotalMem = %v, want %v", got, want)
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	c, err := Uniform(2, 100, 100)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	nodes := c.Nodes()
	nodes[0].CPUMHz = 999
	n, _ := c.Node(0)
	if n.CPUMHz != 100 {
		t.Fatal("mutating Nodes() result changed the cluster")
	}
}

func TestDefaultCostModel(t *testing.T) {
	cm := DefaultCostModel()
	// The paper: Suspend = footprint * 0.0353 s, Resume = * 0.0333,
	// Migrate = * 0.0132, boot = 3.6 s.
	if got := cm.Suspend(4320); math.Abs(got-152.496) > 1e-9 {
		t.Fatalf("Suspend(4320) = %v, want 152.496", got)
	}
	if got := cm.Resume(4320); math.Abs(got-143.856) > 1e-9 {
		t.Fatalf("Resume(4320) = %v, want 143.856", got)
	}
	if got := cm.Migrate(4320); math.Abs(got-57.024) > 1e-9 {
		t.Fatalf("Migrate(4320) = %v, want 57.024", got)
	}
	if got := cm.Boot(); got != 3.6 {
		t.Fatalf("Boot = %v, want 3.6", got)
	}
}

func TestFreeCostModel(t *testing.T) {
	cm := FreeCostModel()
	if cm.Suspend(1000) != 0 || cm.Resume(1000) != 0 || cm.Migrate(1000) != 0 || cm.Boot() != 0 {
		t.Fatal("FreeCostModel should cost nothing")
	}
}

// TestNonFiniteCapacityRejected: NaN, +Inf and −Inf in a node's CPU or
// memory fail every entry point that accepts a node, as zero and
// negative capacities do. Before one finite-and-positive rule, `<= 0`
// let NaN and +Inf through.
func TestNonFiniteCapacityRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		cpu, mem float64
		spec     string
	}{
		{"NaN CPU", nan, 4096, "1xNaN/4096"},
		{"+Inf CPU", inf, 4096, "1x+Inf/4096"},
		{"-Inf CPU", -inf, 4096, "1x-Inf/4096"},
		{"NaN memory", 3000, nan, "2x3000/nan"},
		{"+Inf memory", 3000, inf, "2x3000/Inf"},
		{"-Inf memory", 3000, -inf, "3000/-infinity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := Node{CPUMHz: c.cpu, MemMB: c.mem}
			if _, err := New(n); !errors.Is(err, ErrBadNode) {
				t.Errorf("New: err = %v, want ErrBadNode", err)
			}
			if _, err := Uniform(2, c.cpu, c.mem); !errors.Is(err, ErrBadNode) {
				t.Errorf("Uniform: err = %v, want ErrBadNode", err)
			}
			if _, err := ParseNodes(c.spec); !errors.Is(err, ErrBadNode) {
				t.Errorf("ParseNodes(%q): err = %v, want ErrBadNode", c.spec, err)
			}
			inv := mustInventory(t, 1)
			if _, err := inv.NextNode(n); !errors.Is(err, ErrBadNode) {
				t.Errorf("Inventory.NextNode: err = %v, want ErrBadNode", err)
			}
			n.ID = 5
			if err := inv.Add(n); !errors.Is(err, ErrBadNode) {
				t.Errorf("Inventory.Add: err = %v, want ErrBadNode", err)
			}
			snap := InventorySnapshot{Version: 1, NextID: 1, Nodes: []InventoryNodeSnapshot{
				{ID: 0, Name: "a", CPUMHz: c.cpu, MemMB: c.mem, State: "active"},
			}}
			if _, err := ImportInventory(snap); !errors.Is(err, ErrBadNode) {
				t.Errorf("ImportInventory: err = %v, want ErrBadNode", err)
			}
		})
	}
}
