package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func mustInventory(t *testing.T, count int) *Inventory {
	t.Helper()
	c, err := Uniform(count, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return NewInventory(c)
}

func TestInventoryLifecycle(t *testing.T) {
	inv := mustInventory(t, 3)
	if inv.Version() != 1 {
		t.Fatalf("seed version = %d, want 1", inv.Version())
	}
	if got := len(inv.Active()); got != 3 {
		t.Fatalf("active = %d, want 3", got)
	}

	// Drain: active -> draining, version bump; idempotent retry is free.
	if _, err := inv.Drain("node-1"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	v := inv.Version()
	if v != 2 {
		t.Fatalf("version after drain = %d, want 2", v)
	}
	if _, err := inv.Drain("node-1"); err != nil {
		t.Fatalf("idempotent Drain: %v", err)
	}
	if inv.Version() != v {
		t.Fatalf("idempotent drain bumped version to %d", inv.Version())
	}
	if n, _ := inv.ByName("node-1"); n.State != NodeDraining {
		t.Fatalf("state = %v, want draining", n.State)
	}
	if got := len(inv.Active()); got != 2 {
		t.Fatalf("active after drain = %d, want 2", got)
	}

	// Fail: any non-failed state -> failed; draining a failed node errors.
	if _, err := inv.Fail("node-1"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if _, err := inv.Drain("node-1"); !errors.Is(err, ErrBadNode) {
		t.Fatalf("Drain failed node = %v, want ErrBadNode", err)
	}

	// Remove deletes the entry; the ID is retired.
	id, err := inv.Remove("node-1")
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if id != 1 {
		t.Fatalf("removed ID = %d, want 1", id)
	}
	if _, ok := inv.Node(1); ok {
		t.Fatal("removed node still resolves by ID")
	}
	if _, ok := inv.ByName("node-1"); ok {
		t.Fatal("removed node still resolves by name")
	}
	if inv.Len() != 2 {
		t.Fatalf("len = %d, want 2", inv.Len())
	}

	// Add assigns a fresh ID past every ID ever issued.
	nid, err := inv.Add(Node{CPUMHz: 2000, MemMB: 1024})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if nid != 3 {
		t.Fatalf("new ID = %d, want 3 (IDs never reused)", nid)
	}
	n, ok := inv.Node(nid)
	if !ok || n.Name != "node-3" || n.State != NodeActive {
		t.Fatalf("added node = %+v, want active node-3", n)
	}
	counts := inv.Counts()
	if counts["active"] != 3 || counts["failed"] != 0 {
		t.Fatalf("counts = %v, want 3 active", counts)
	}
}

func TestInventoryValidation(t *testing.T) {
	inv := mustInventory(t, 1)
	if _, err := inv.Add(Node{CPUMHz: 0, MemMB: 100}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("Add zero CPU = %v, want ErrBadNode", err)
	}
	if _, err := inv.Add(Node{Name: "node-0", CPUMHz: 100, MemMB: 100}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("Add duplicate name = %v, want ErrBadNode", err)
	}
	for _, op := range []func() (NodeID, error){
		func() (NodeID, error) { return inv.Drain("ghost") },
		func() (NodeID, error) { return inv.Fail("ghost") },
		func() (NodeID, error) { return inv.Remove("ghost") },
	} {
		if _, err := op(); !errors.Is(err, ErrUnknownInventoryNode) {
			t.Fatalf("unknown node op = %v, want ErrUnknownInventoryNode", err)
		}
	}
	if err := inv.FailID(99); !errors.Is(err, ErrUnknownInventoryNode) {
		t.Fatalf("FailID unknown = %v, want ErrUnknownInventoryNode", err)
	}
	if err := inv.FailID(0); err != nil {
		t.Fatalf("FailID: %v", err)
	}
	if n, _ := inv.Node(0); n.State != NodeFailed {
		t.Fatalf("state after FailID = %v, want failed", n.State)
	}
}

// TestInventoryExportImportRoundTrip churns an inventory through every
// lifecycle transition, round-trips it through JSON, and checks the
// import resumes the registry exactly: IDs, states, version, and —
// critically — the ID allocator, so IDs retired before the export stay
// retired after it.
func TestInventoryExportImportRoundTrip(t *testing.T) {
	cl, err := Uniform(3, 3000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewInventory(cl)
	if _, err := inv.Add(Node{Name: "spare", CPUMHz: 2000, MemMB: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Drain("node-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fail("node-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Remove("node-2"); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(inv.Export())
	if err != nil {
		t.Fatal(err)
	}
	var snap InventorySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := ImportInventory(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != inv.Version() || got.Len() != inv.Len() {
		t.Fatalf("version/len = %d/%d, want %d/%d", got.Version(), got.Len(), inv.Version(), inv.Len())
	}
	want := inv.Nodes()
	have := got.Nodes()
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("node %d = %+v, want %+v", i, have[i], want[i])
		}
	}
	// The removed node's ID (2) must stay retired: a fresh Add gets the
	// next never-used ID on both original and import.
	idOrig, err := inv.Add(Node{Name: "next-a", CPUMHz: 1000, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	idImp, err := got.Add(Node{Name: "next-a", CPUMHz: 1000, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if idOrig != idImp || idImp == 2 {
		t.Fatalf("post-import ID allocation diverged: orig %d, import %d", idOrig, idImp)
	}
}

func TestImportInventoryRejectsBadSnapshots(t *testing.T) {
	good := InventorySnapshot{
		Version: 3, NextID: 2,
		Nodes: []InventoryNodeSnapshot{{ID: 0, Name: "a", CPUMHz: 100, MemMB: 100, State: "active"}},
	}
	cases := map[string]func(s *InventorySnapshot){
		"zero version":    func(s *InventorySnapshot) { s.Version = 0 },
		"unknown state":   func(s *InventorySnapshot) { s.Nodes[0].State = "zombie" },
		"stale nextID":    func(s *InventorySnapshot) { s.NextID = 0 },
		"nonpositive cpu": func(s *InventorySnapshot) { s.Nodes[0].CPUMHz = 0 },
		"duplicate name": func(s *InventorySnapshot) {
			s.Nodes = append(s.Nodes, InventoryNodeSnapshot{ID: 1, Name: "a", CPUMHz: 1, MemMB: 1, State: "active"})
		},
		"unordered ids": func(s *InventorySnapshot) {
			s.Nodes = append(s.Nodes, InventoryNodeSnapshot{ID: 0, Name: "b", CPUMHz: 1, MemMB: 1, State: "active"})
			s.NextID = 9
		},
	}
	for name, mutate := range cases {
		snap := good
		snap.Nodes = append([]InventoryNodeSnapshot(nil), good.Nodes...)
		mutate(&snap)
		if _, err := ImportInventory(snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ImportInventory(good); err != nil {
		t.Errorf("good snapshot rejected: %v", err)
	}
}

// TestRestoreAddSkipsBurnedIDs covers the replay path behind a journal
// failure: the live inventory allocated and retired an ID that no WAL
// record captured, so replay must land the next journaled node on its
// recorded (higher) ID and advance the allocator past it.
func TestRestoreAddSkipsBurnedIDs(t *testing.T) {
	inv := mustInventory(t, 2) // IDs 0, 1; nextID 2
	// Journaled record says "spare" got ID 4 (IDs 2 and 3 were burned).
	if err := inv.RestoreAdd(Node{Name: "spare", CPUMHz: 1000, MemMB: 1024}, 4); err != nil {
		t.Fatal(err)
	}
	n, ok := inv.ByName("spare")
	if !ok || n.ID != 4 || n.State != NodeActive {
		t.Fatalf("restored node = %+v", n)
	}
	// The allocator continues after the restored ID.
	id, err := inv.Add(Node{Name: "next", CPUMHz: 1000, MemMB: 1024})
	if err != nil || id != 5 {
		t.Fatalf("post-restore Add = %d, %v; want 5", id, err)
	}
	// An ID at or below the allocator is refused: it was already used.
	if err := inv.RestoreAdd(Node{Name: "clash", CPUMHz: 1, MemMB: 1}, 3); err == nil {
		t.Fatal("RestoreAdd accepted an already-allocated ID")
	}
}

// TestInventoryNodeAfterChurn: Node binary-searches the nodes by ID, so
// it relies on them staying ascending through every mutation. After
// each step of a seeded add/restore/remove/fail churn, and after an
// export/import round trip, every live ID resolves to its node and
// every retired or never-issued ID does not.
func TestInventoryNodeAfterChurn(t *testing.T) {
	inv := mustInventory(t, 8)
	live := make(map[NodeID]string)
	for _, n := range inv.Nodes() {
		live[n.ID] = n.Name
	}
	retired := make(map[NodeID]bool)
	check := func(inv *Inventory, step int) {
		t.Helper()
		for id, name := range live {
			if n, ok := inv.Node(id); !ok || n.Name != name {
				t.Fatalf("step %d: Node(%d) = %+v, %v; want %q", step, id, n, ok, name)
			}
		}
		for id := range retired {
			if n, ok := inv.Node(id); ok {
				t.Fatalf("step %d: retired ID %d resolves to %+v", step, id, n)
			}
		}
		for _, id := range []NodeID{-1, inv.nextID, inv.nextID + 7} {
			if _, ok := inv.Node(id); ok {
				t.Fatalf("step %d: never-issued ID %d resolves", step, id)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			id, err := inv.Add(Node{CPUMHz: 1000, MemMB: 1024})
			if err != nil {
				t.Fatal(err)
			}
			live[id] = fmt.Sprintf("node-%d", id)
		case op < 5:
			// A journaled add past IDs the live inventory burned.
			burned := inv.nextID
			id := burned + NodeID(1+rng.Intn(3))
			if err := inv.RestoreAdd(Node{CPUMHz: 1000, MemMB: 1024}, id); err != nil {
				t.Fatal(err)
			}
			for b := burned; b < id; b++ {
				retired[b] = true
			}
			live[id] = fmt.Sprintf("node-%d", id)
		case op < 8:
			id := pickID(rng, live)
			if _, err := inv.Remove(live[id]); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			retired[id] = true
		default:
			if err := inv.FailID(pickID(rng, live)); err != nil {
				t.Fatal(err)
			}
		}
		check(inv, step)
	}
	for id := range retired {
		if err := inv.FailID(id); !errors.Is(err, ErrUnknownInventoryNode) {
			t.Fatalf("FailID(retired %d) = %v, want ErrUnknownInventoryNode", id, err)
		}
	}
	imported, err := ImportInventory(inv.Export())
	if err != nil {
		t.Fatal(err)
	}
	check(imported, -1)
}

// pickID returns a uniformly chosen key of live, independent of map
// iteration order.
func pickID(rng *rand.Rand, live map[NodeID]string) NodeID {
	ids := make([]NodeID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[rng.Intn(len(ids))]
}
