// Package core implements the Application Placement Controller (APC): the
// optimizer that, once per control cycle, chooses which application
// instances run on which nodes and how much CPU each receives, so that
// the ascending-sorted vector of per-application relative performance is
// lexicographically maximized (the paper's extension of max-min fairness)
// while placement changes are kept to a minimum.
package core

import (
	"errors"
	"fmt"
	"slices"

	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/txn"
)

// Kind distinguishes the two workload classes.
type Kind int

// Application kinds.
const (
	// KindWeb is a transactional application served by a cluster of
	// instances behind the request router.
	KindWeb Kind = iota + 1
	// KindBatch is a long-running job occupying a single node when
	// placed.
	KindBatch
)

func (k Kind) String() string {
	switch k {
	case KindWeb:
		return "web"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Application is one managed entity: either a transactional application
// or a batch job, together with its runtime state at the current cycle.
type Application struct {
	// Name identifies the application.
	Name string
	// Kind selects which of Web or Job is set.
	Kind Kind
	// Web holds the transactional model when Kind == KindWeb.
	Web *txn.App
	// Job holds the batch profile when Kind == KindBatch.
	Job *batch.Spec
	// Done is α*: megacycles the job has completed (batch only).
	Done float64
	// Started reports whether the job has ever run (resume vs start).
	Started bool
	// PinnedNodes, when non-empty, restricts placement to these nodes.
	PinnedNodes []cluster.NodeID
	// AntiCollocate lists application names this one must never share a
	// node with (the paper's collocation constraints). The relation is
	// enforced symmetrically regardless of which side declares it.
	AntiCollocate []string
}

// ErrBadApplication reports an inconsistent Application.
var ErrBadApplication = errors.New("core: invalid application")

// Validate checks the application definition.
func (a *Application) Validate() error {
	switch a.Kind {
	case KindWeb:
		if a.Web == nil {
			return fmt.Errorf("%w %q: web kind without model", ErrBadApplication, a.Name)
		}
		return a.Web.Validate()
	case KindBatch:
		if a.Job == nil {
			return fmt.Errorf("%w %q: batch kind without job spec", ErrBadApplication, a.Name)
		}
		if a.Done < 0 {
			return fmt.Errorf("%w %q: negative progress", ErrBadApplication, a.Name)
		}
		return a.Job.Validate()
	default:
		return fmt.Errorf("%w %q: unknown kind %d", ErrBadApplication, a.Name, a.Kind)
	}
}

// MemoryMB returns the load-independent footprint of one instance.
func (a *Application) MemoryMB() float64 {
	if a.Kind == KindWeb {
		return a.Web.MemoryMB
	}
	return a.Job.MemoryAt(a.Done)
}

// allows reports whether the application may be placed on the node.
func (a *Application) allows(n cluster.NodeID) bool {
	if len(a.PinnedNodes) == 0 {
		return true
	}
	for _, p := range a.PinnedNodes {
		if p == n {
			return true
		}
	}
	return false
}

// Placement is the matrix P: which nodes host an instance of each
// application. Batch jobs hold at most one instance; web applications at
// most one instance per node.
type Placement struct {
	nodes [][]cluster.NodeID // per app, sorted ascending
}

// NewPlacement returns an empty placement for numApps applications.
func NewPlacement(numApps int) *Placement {
	return &Placement{nodes: make([][]cluster.NodeID, numApps)}
}

// Clone returns a deep copy. The copy's node lists share one backing
// array (each capped at its own length, so a later Add reallocates that
// list alone): cloning costs three allocations whatever the number of
// applications.
func (p *Placement) Clone() *Placement {
	total := 0
	for _, ns := range p.nodes {
		total += len(ns)
	}
	cp := &Placement{nodes: make([][]cluster.NodeID, len(p.nodes))}
	buf := make([]cluster.NodeID, total)
	for i, ns := range p.nodes {
		if n := copy(buf, ns); n > 0 {
			cp.nodes[i] = buf[:n:n]
			buf = buf[n:]
		}
	}
	return cp
}

// Apps returns the number of applications the placement covers.
func (p *Placement) Apps() int { return len(p.nodes) }

// NodesOf returns the nodes hosting the application (shared slice; do not
// mutate).
func (p *Placement) NodesOf(app int) []cluster.NodeID {
	if app < 0 || app >= len(p.nodes) {
		return nil
	}
	return p.nodes[app]
}

// Placed reports whether the application has at least one instance.
func (p *Placement) Placed(app int) bool { return len(p.NodesOf(app)) > 0 }

// Has reports whether the application has an instance on the node.
func (p *Placement) Has(app int, n cluster.NodeID) bool {
	return slices.Contains(p.NodesOf(app), n)
}

// Add places an instance of app on node n (idempotent), keeping the
// application's node list sorted.
func (p *Placement) Add(app int, n cluster.NodeID) {
	if app < 0 || app >= len(p.nodes) {
		return
	}
	if pos, ok := slices.BinarySearch(p.nodes[app], n); !ok {
		p.nodes[app] = slices.Insert(p.nodes[app], pos, n)
	}
}

// Remove deletes the instance of app on node n if present.
func (p *Placement) Remove(app int, n cluster.NodeID) {
	if i := slices.Index(p.nodes[app], n); i >= 0 {
		p.nodes[app] = slices.Delete(p.nodes[app], i, i+1)
	}
}

// edit is one instance an optimizer candidate changes in the incumbent:
// it adds app's instance on node, or with add false removes it.
type edit struct {
	app  int
	node cluster.NodeID
	add  bool
}

// apply makes a candidate's edits, or with undo set takes them back. A
// candidate's edits touch distinct (app, node) incidences, so they
// commute, and undoing them is making each with add and remove swapped.
func (p *Placement) apply(edits []edit, undo bool) {
	for _, e := range edits {
		if e.add != undo {
			p.Add(e.app, e.node)
		} else {
			p.Remove(e.app, e.node)
		}
	}
}

// OnNode returns the applications with an instance on node n.
func (p *Placement) OnNode(n cluster.NodeID) []int {
	var out []int
	for app, ns := range p.nodes {
		for _, x := range ns {
			if x == n {
				out = append(out, app)
				break
			}
		}
	}
	return out
}

// Changes counts instance-level differences from another placement:
// every (app, node) incidence present in exactly one of the two.
func (p *Placement) Changes(other *Placement) int {
	count := 0
	for app := range max(len(p.nodes), len(other.nodes)) {
		a, b := p.NodesOf(app), other.NodesOf(app)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				i++
				j++
			case a[i] < b[j]:
				count++
				i++
			default:
				count++
				j++
			}
		}
		count += (len(a) - i) + (len(b) - j)
	}
	return count
}
