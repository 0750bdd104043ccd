package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// NodeState is a node's lifecycle state within an Inventory.
type NodeState int

// Node lifecycle states.
const (
	// NodeActive: offering capacity; the optimizer may place work here.
	NodeActive NodeState = iota + 1
	// NodeDraining: existing work keeps running but receives no new
	// placements; the next control cycle migrates work off gracefully.
	NodeDraining
	// NodeFailed: capacity gone abruptly; work that was placed here has
	// been lost and must be rescued elsewhere.
	NodeFailed
)

func (s NodeState) String() string {
	switch s {
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeFailed:
		return "failed"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// InventoryNode is one inventory entry: a node plus its lifecycle state.
type InventoryNode struct {
	Node
	State NodeState
}

// ErrUnknownInventoryNode reports an operation on a node the inventory
// does not hold.
var ErrUnknownInventoryNode = errors.New("cluster: unknown inventory node")

// Inventory is a versioned, mutable node registry: the runtime source of
// truth the placement controller replans against every cycle. Nodes can
// join (NextNode then Add), leave gracefully (Drain then Remove) or
// abruptly (Fail) while the control loop runs; every mutation bumps the
// version so consumers can tell which inventory a decision was made
// against.
//
// Node IDs are stable for the inventory's lifetime and never reused:
// removing a node retires its ID, and Add accepts only a fresh one.
// That keeps IDs held by long-lived references (a job's current node, a
// carried web placement) unambiguous across churn — a dangling ID simply
// stops resolving instead of silently pointing at a newcomer.
//
// All methods are safe for concurrent use.
type Inventory struct {
	mu      sync.Mutex
	version int64
	nextID  NodeID
	nodes   []InventoryNode // ascending ID order
	byName  map[string]int  // name -> index into nodes
}

// NewInventory seeds an inventory from a fixed cluster: every node
// starts active, keeping its ID and name. The cluster is not retained.
func NewInventory(c *Cluster) *Inventory {
	inv := &Inventory{version: 1, byName: make(map[string]int)}
	for _, n := range c.Nodes() {
		inv.byName[n.Name] = len(inv.nodes)
		inv.nodes = append(inv.nodes, InventoryNode{Node: n, State: NodeActive})
		if n.ID >= inv.nextID {
			inv.nextID = n.ID + 1
		}
	}
	return inv
}

// Version returns the current inventory version. It starts at 1 and
// increments on every effective mutation.
func (v *Inventory) Version() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.version
}

// Len returns the number of registered nodes in any state.
func (v *Inventory) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.nodes)
}

// Nodes returns a copy of every registered node in ascending ID order.
func (v *Inventory) Nodes() []InventoryNode {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]InventoryNode, len(v.nodes))
	copy(out, v.nodes)
	return out
}

// Active returns the nodes currently offering capacity to the placement
// optimizer, in ascending ID order.
func (v *Inventory) Active() []Node {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []Node
	for _, n := range v.nodes {
		if n.State == NodeActive {
			out = append(out, n.Node)
		}
	}
	return out
}

// Node returns the registered node with the given ID.
func (v *Inventory) Node(id NodeID) (InventoryNode, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i, ok := v.indexOf(id); ok {
		return v.nodes[i], true
	}
	return InventoryNode{}, false
}

// indexOf binary-searches the ascending nodes for id. Callers hold mu.
func (v *Inventory) indexOf(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(v.nodes, id, func(n InventoryNode, id NodeID) int {
		return cmp.Compare(n.ID, id)
	})
}

// ByName returns the registered node with the given name.
func (v *Inventory) ByName(name string) (InventoryNode, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i, ok := v.byName[name]; ok {
		return v.nodes[i], true
	}
	return InventoryNode{}, false
}

// Counts returns the number of nodes per lifecycle state, keyed by the
// state's string form.
func (v *Inventory) Counts() map[string]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int, 3)
	for _, n := range v.nodes {
		out[n.State.String()]++
	}
	return out
}

// NextNode returns n as Add would register it next: under the next
// unallocated ID, named "node-<id>" when unnamed. It checks n as Add
// does but changes nothing, so a caller can journal the node before
// adding it.
func (v *Inventory) NextNode(n Node) (Node, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n.ID = v.nextID
	return v.checkNew(n)
}

// Add registers n as a new active node under n.ID, an ID chosen by
// NextNode or journaled from it. IDs below the next unallocated one were
// assigned or retired and are refused; an ID beyond it retires the IDs
// in between, which keeps the replay of a journal exact when the IDs it
// skips were burned. An empty name defaults to "node-<id>"; names must
// be unique among the registered nodes.
func (v *Inventory) Add(n Node) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.checkNew(n)
	if err != nil {
		return err
	}
	v.nextID = n.ID + 1
	v.byName[n.Name] = len(v.nodes)
	v.nodes = append(v.nodes, InventoryNode{Node: n, State: NodeActive})
	v.version++
	return nil
}

// checkNew validates a node about to join under n.ID and fills in its
// default name. Callers hold mu.
func (v *Inventory) checkNew(n Node) (Node, error) {
	if !finitePositive(n.CPUMHz) || !finitePositive(n.MemMB) {
		return Node{}, fmt.Errorf("%w: node needs finite, positive CPU and memory (got %v MHz, %v MB)",
			ErrBadNode, n.CPUMHz, n.MemMB)
	}
	if n.ID < v.nextID {
		return Node{}, fmt.Errorf("%w: node ID %d already allocated (next is %d)", ErrBadNode, n.ID, v.nextID)
	}
	if n.Name == "" {
		n.Name = fmt.Sprintf("node-%d", n.ID)
	}
	if _, dup := v.byName[n.Name]; dup {
		return Node{}, fmt.Errorf("%w: duplicate node name %q", ErrBadNode, n.Name)
	}
	return n, nil
}

// RestoreVersion fast-forwards the version counter to a journaled value
// during recovery replay. A journal written by an earlier daemon, whose
// adds applied before they journaled, can lack increments that live
// mutation burned (an add rolled back on journal failure bumped the
// version twice), so replay resynchronizes from versions recorded
// alongside the ops. Values at or below the current version are ignored — the counter
// never moves backwards.
func (v *Inventory) RestoreVersion(ver int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ver > v.version {
		v.version = ver
	}
}

// Drain marks the named node as draining: it stops accepting placements
// and the controller migrates its work off at the next cycle. Draining a
// node that is already draining is a no-op; draining a failed node is an
// error (there is nothing left to migrate gracefully).
func (v *Inventory) Drain(name string) (NodeID, error) {
	return v.transition(name, NodeDraining)
}

// Fail marks the named node as failed: its capacity disappears abruptly
// and whatever was placed on it must be rescued. Failing an
// already-failed node is a no-op.
func (v *Inventory) Fail(name string) (NodeID, error) {
	return v.transition(name, NodeFailed)
}

// FailID is Fail keyed by node ID, for callers that carry IDs (the
// simulation runner's scheduled failure events).
func (v *Inventory) FailID(id NodeID) error {
	v.mu.Lock()
	name := ""
	if i, ok := v.indexOf(id); ok {
		name = v.nodes[i].Name
	}
	v.mu.Unlock()
	if name == "" {
		return fmt.Errorf("%w: no node %d", ErrUnknownInventoryNode, id)
	}
	_, err := v.Fail(name)
	return err
}

func (v *Inventory) transition(name string, to NodeState) (NodeID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := v.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownInventoryNode, name)
	}
	n := &v.nodes[i]
	switch {
	case n.State == to:
		return n.ID, nil // idempotent for operator retries
	case to == NodeDraining && n.State == NodeFailed:
		return 0, fmt.Errorf("%w: cannot drain failed node %q", ErrBadNode, name)
	}
	n.State = to
	v.version++
	return n.ID, nil
}

// Remove deregisters the named node entirely and retires its ID. The
// inventory does not know what is placed where, so occupancy guards
// (refusing to remove a node still hosting work) are the caller's
// responsibility.
func (v *Inventory) Remove(name string) (NodeID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := v.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownInventoryNode, name)
	}
	id := v.nodes[i].ID
	v.nodes = append(v.nodes[:i], v.nodes[i+1:]...)
	delete(v.byName, name)
	for j := i; j < len(v.nodes); j++ {
		v.byName[v.nodes[j].Name] = j
	}
	v.version++
	return id, nil
}

// InventoryNodeSnapshot is the stable serialized form of one inventory
// entry, used by the daemon's durable store.
type InventoryNodeSnapshot struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	CPUMHz float64 `json:"cpuMHz"`
	MemMB  float64 `json:"memMB"`
	State  string  `json:"state"`
}

// InventorySnapshot is the stable serialized form of a whole inventory:
// every node with its lifecycle state, the version counter, and the
// next ID to assign — enough to resume the registry exactly, with
// retired IDs staying retired across restarts.
type InventorySnapshot struct {
	Version int64                   `json:"version"`
	NextID  int                     `json:"nextID"`
	Nodes   []InventoryNodeSnapshot `json:"nodes"`
}

// Export captures the inventory for serialization.
func (v *Inventory) Export() InventorySnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := InventorySnapshot{
		Version: v.version,
		NextID:  int(v.nextID),
		Nodes:   make([]InventoryNodeSnapshot, 0, len(v.nodes)),
	}
	for _, n := range v.nodes {
		out.Nodes = append(out.Nodes, InventoryNodeSnapshot{
			ID:     int(n.ID),
			Name:   n.Name,
			CPUMHz: n.CPUMHz,
			MemMB:  n.MemMB,
			State:  n.State.String(),
		})
	}
	return out
}

// ParseNodeState inverts NodeState.String for deserialization.
func ParseNodeState(s string) (NodeState, error) {
	for _, st := range []NodeState{NodeActive, NodeDraining, NodeFailed} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown node state %q", s)
}

// ImportInventory rebuilds an inventory from a snapshot, restoring node
// IDs, lifecycle states, the version counter and the ID allocator. An
// imported inventory may legitimately be empty (every node removed);
// planning against it reports infeasibility once workloads exist.
func ImportInventory(s InventorySnapshot) (*Inventory, error) {
	if s.Version < 1 {
		return nil, fmt.Errorf("%w: inventory version %d", ErrBadNode, s.Version)
	}
	inv := &Inventory{version: s.Version, nextID: NodeID(s.NextID), byName: make(map[string]int)}
	lastID := NodeID(-1)
	for _, n := range s.Nodes {
		state, err := ParseNodeState(n.State)
		if err != nil {
			return nil, err
		}
		if !finitePositive(n.CPUMHz) || !finitePositive(n.MemMB) {
			return nil, fmt.Errorf("%w: node %q needs finite, positive CPU and memory", ErrBadNode, n.Name)
		}
		if NodeID(n.ID) <= lastID {
			return nil, fmt.Errorf("%w: node IDs not strictly ascending at %q", ErrBadNode, n.Name)
		}
		lastID = NodeID(n.ID)
		if _, dup := inv.byName[n.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate node name %q", ErrBadNode, n.Name)
		}
		inv.byName[n.Name] = len(inv.nodes)
		inv.nodes = append(inv.nodes, InventoryNode{
			Node:  Node{ID: NodeID(n.ID), Name: n.Name, CPUMHz: n.CPUMHz, MemMB: n.MemMB},
			State: state,
		})
	}
	if inv.nextID <= lastID {
		return nil, fmt.Errorf("%w: nextID %d does not clear max node ID %d", ErrBadNode, inv.nextID, lastID)
	}
	return inv, nil
}
