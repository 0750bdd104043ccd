// Package cluster models the physical infrastructure: nodes with CPU and
// memory capacities, and the cost model for the virtualization control
// mechanisms (boot, suspend, resume, migrate) used to reconfigure
// application placement.
package cluster

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node within a cluster.
type NodeID int

// Node is a physical machine. CPU capacity is expressed in MHz (the sum
// over all processors, as in the paper), memory in MB.
type Node struct {
	ID     NodeID
	Name   string
	CPUMHz float64
	MemMB  float64
}

// Cluster is a fixed set of nodes. The zero value is an empty cluster.
type Cluster struct {
	nodes []Node
}

// ErrBadNode reports an invalid node definition.
var ErrBadNode = errors.New("cluster: invalid node")

// finitePositive is the one capacity rule: every node's CPU and memory
// must be greater than zero and finite. A `<= 0` test alone lets NaN
// and +Inf through, and a placement holding either can never be
// JSON-encoded.
func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// New builds a cluster from node definitions, assigning sequential IDs.
func New(nodes ...Node) (*Cluster, error) {
	c := &Cluster{nodes: make([]Node, len(nodes))}
	for i, n := range nodes {
		if !finitePositive(n.CPUMHz) || !finitePositive(n.MemMB) {
			return nil, fmt.Errorf("%w: node %d needs finite, positive CPU and memory (got %v MHz, %v MB)",
				ErrBadNode, i, n.CPUMHz, n.MemMB)
		}
		n.ID = NodeID(i)
		if n.Name == "" {
			n.Name = fmt.Sprintf("node-%d", i)
		}
		c.nodes[i] = n
	}
	return c, nil
}

// Uniform builds a cluster of count identical nodes.
func Uniform(count int, cpuMHz, memMB float64) (*Cluster, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: count must be positive, got %d", ErrBadNode, count)
	}
	nodes := make([]Node, count)
	for i := range nodes {
		nodes[i] = Node{CPUMHz: cpuMHz, MemMB: memMB}
	}
	return New(nodes...)
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) (Node, bool) {
	if id < 0 || int(id) >= len(c.nodes) {
		return Node{}, false
	}
	return c.nodes[id], true
}

// Nodes returns a copy of the node list.
func (c *Cluster) Nodes() []Node {
	out := make([]Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// TotalCPU returns the aggregate CPU capacity in MHz.
func (c *Cluster) TotalCPU() float64 {
	var sum float64
	for _, n := range c.nodes {
		sum += n.CPUMHz
	}
	return sum
}

// TotalMem returns the aggregate memory capacity in MB.
func (c *Cluster) TotalMem() float64 {
	var sum float64
	for _, n := range c.nodes {
		sum += n.MemMB
	}
	return sum
}

// CostModel gives the virtual-time cost, in seconds, of each placement
// action. The default constants are the measurements reported in the
// paper's Section 5 for a popular Intel virtualization product: linear in
// the VM memory footprint for suspend/resume/migrate, constant for boot.
type CostModel struct {
	// SuspendPerMB is the suspend cost factor (s/MB of VM footprint).
	SuspendPerMB float64
	// ResumePerMB is the resume cost factor (s/MB).
	ResumePerMB float64
	// MigratePerMB is the live-migration cost factor (s/MB).
	MigratePerMB float64
	// BootSeconds is the fixed VM boot time (s).
	BootSeconds float64
}

// DefaultCostModel returns the paper's measured cost constants.
func DefaultCostModel() CostModel {
	return CostModel{
		SuspendPerMB: 0.0353,
		ResumePerMB:  0.0333,
		MigratePerMB: 0.0132,
		BootSeconds:  3.6,
	}
}

// FreeCostModel returns a model in which every action is instantaneous.
// Experiment Two in the paper runs with action costs excluded.
func FreeCostModel() CostModel { return CostModel{} }

// Suspend returns the cost of suspending a VM with the given footprint.
func (c CostModel) Suspend(footprintMB float64) float64 { return c.SuspendPerMB * footprintMB }

// Resume returns the cost of resuming a VM with the given footprint.
func (c CostModel) Resume(footprintMB float64) float64 { return c.ResumePerMB * footprintMB }

// Migrate returns the cost of migrating a VM with the given footprint.
func (c CostModel) Migrate(footprintMB float64) float64 { return c.MigratePerMB * footprintMB }

// Boot returns the VM boot cost.
func (c CostModel) Boot() float64 { return c.BootSeconds }
