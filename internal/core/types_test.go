package core

import (
	"errors"
	"testing"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

func webApp(name string) *Application {
	return &Application{
		Name: name,
		Kind: KindWeb,
		Web: &txn.App{
			Name:             name,
			ArrivalRate:      100,
			DemandPerRequest: 50,
			BaseLatency:      0.02,
			GoalResponseTime: 0.1,
			MaxPowerMHz:      20000,
			MemoryMB:         1000,
		},
	}
}

func batchApp(name string, work, speed, mem, submit, deadline float64) *Application {
	return &Application{
		Name: name,
		Kind: KindBatch,
		Job:  batch.SingleStage(name, work, speed, mem, submit, deadline),
	}
}

func TestApplicationValidate(t *testing.T) {
	tests := []struct {
		name string
		app  *Application
		ok   bool
	}{
		{"web ok", webApp("w"), true},
		{"batch ok", batchApp("b", 1000, 500, 100, 0, 10), true},
		{"web missing model", &Application{Name: "x", Kind: KindWeb}, false},
		{"batch missing job", &Application{Name: "x", Kind: KindBatch}, false},
		{"unknown kind", &Application{Name: "x"}, false},
		{"negative done", func() *Application {
			a := batchApp("b", 1000, 500, 100, 0, 10)
			a.Done = -1
			return a
		}(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.app.Validate()
			if tt.ok && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("Validate succeeded, want error")
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindWeb.String() != "web" || KindBatch.String() != "batch" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind = %q", Kind(99).String())
	}
}

func TestPlacementBasics(t *testing.T) {
	p := NewPlacement(3)
	if p.Placed(0) {
		t.Fatal("empty placement reports placed")
	}
	p.Add(0, 2)
	p.Add(0, 1)
	p.Add(0, 2) // idempotent
	ns := p.NodesOf(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("NodesOf = %v, want [1 2] sorted", ns)
	}
	if !p.Has(0, 2) || p.Has(0, 0) {
		t.Fatal("Has mismatch")
	}
	p.Remove(0, 1)
	if p.Has(0, 1) || !p.Has(0, 2) {
		t.Fatal("Remove mismatch")
	}
	p.Remove(0, 99) // no-op
	// Out-of-range is safe.
	p.Add(-1, 0)
	p.Add(5, 0)
	if p.NodesOf(9) != nil {
		t.Fatal("out-of-range NodesOf not nil")
	}
}

func TestPlacementOnNode(t *testing.T) {
	p := NewPlacement(3)
	p.Add(0, 1)
	p.Add(1, 1)
	p.Add(2, 0)
	apps := p.OnNode(1)
	if len(apps) != 2 || apps[0] != 0 || apps[1] != 1 {
		t.Fatalf("OnNode(1) = %v, want [0 1]", apps)
	}
	if got := p.OnNode(5); got != nil {
		t.Fatalf("OnNode(5) = %v, want nil", got)
	}
}

func TestPlacementCloneIndependent(t *testing.T) {
	p := NewPlacement(2)
	p.Add(0, 1)
	cp := p.Clone()
	cp.Add(0, 2)
	cp.Add(1, 0)
	if p.Has(0, 2) || p.Placed(1) {
		t.Fatal("Clone shares state with original")
	}
}

func TestPlacementChanges(t *testing.T) {
	a := NewPlacement(3)
	b := NewPlacement(3)
	if a.Changes(b) != 0 {
		t.Fatal("empty placements differ")
	}
	a.Add(0, 1)
	a.Add(1, 2)
	b.Add(0, 1)
	b.Add(1, 3) // moved
	b.Add(2, 0) // added
	// app1: node2 vs node3 → 2 diffs; app2: +1 diff.
	if got := a.Changes(b); got != 3 {
		t.Fatalf("Changes = %d, want 3", got)
	}
	if got := b.Changes(a); got != 3 {
		t.Fatalf("Changes not symmetric: %d", got)
	}
}

func TestProblemValidate(t *testing.T) {
	cl, err := cluster.Uniform(2, 1000, 2000)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	good := &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{webApp("w")}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tests := []struct {
		name string
		p    *Problem
	}{
		{"nil cluster", &Problem{Cycle: 1}},
		{"zero cycle", &Problem{Cluster: cl}},
		{"nil app", &Problem{Cluster: cl, Cycle: 1, Apps: []*Application{nil}}},
		{"placement mismatch", &Problem{Cluster: cl, Cycle: 1,
			Apps: []*Application{webApp("w")}, Current: NewPlacement(5)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); !errors.Is(err, ErrBadProblem) {
				t.Fatalf("Validate = %v, want ErrBadProblem", err)
			}
		})
	}
}

func TestPinning(t *testing.T) {
	a := batchApp("b", 1000, 500, 100, 0, 10)
	if !a.allows(3) {
		t.Fatal("unpinned app rejects node")
	}
	a.PinnedNodes = []cluster.NodeID{1, 2}
	if a.allows(3) || !a.allows(2) {
		t.Fatal("pinning not honored")
	}
}
