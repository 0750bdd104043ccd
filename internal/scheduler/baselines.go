package scheduler

import (
	"sort"

	"dynplace/internal/cluster"
)

// FCFS is the non-preemptive First-Come First-Served baseline with
// first-fit placement: running jobs are never disturbed; queued jobs are
// started in submission order, strictly from the head of the queue, when
// a node has memory and CPU for them. The paper uses it both as an
// Experiment Two baseline and as the job scheduler of the statically
// partitioned configurations in Experiment Three.
type FCFS struct{}

var _ Policy = FCFS{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Schedule implements Policy.
func (FCFS) Schedule(now, cycle float64, jobs []*Job, nodes []NodeCapacity, _ cluster.CostModel) ([]Assignment, error) {
	free := newFreeMap(nodes)
	var out []Assignment
	// Keep running (and paused) jobs exactly where they are, at the
	// fastest speed their node still offers, in submission order.
	resident := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Status == Running || j.Status == Paused {
			resident = append(resident, j)
		}
	}
	sortBySubmit(resident)
	for _, j := range resident {
		speed := free.claim(j, j.Node)
		out = append(out, Assignment{Job: j, Node: j.Node, SpeedMHz: speed})
	}
	// Start queued jobs strictly in submission order; stop at the first
	// that does not fit (no backfilling — head-of-line semantics).
	queued := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Status == Pending {
			queued = append(queued, j)
		}
	}
	sortBySubmit(queued)
	for _, j := range queued {
		node, ok := free.firstFit(j)
		if !ok {
			break
		}
		speed := free.claim(j, node)
		out = append(out, Assignment{Job: j, Node: node, SpeedMHz: speed})
	}
	return out, nil
}

// EDF is the preemptive Earliest Deadline First baseline with first-fit
// placement: every cycle, all incomplete jobs are ranked by absolute
// deadline and placed greedily; running jobs that lose their slot are
// suspended. A running job prefers its current node to avoid gratuitous
// migrations, but migrates if an earlier-deadline job displaced it.
type EDF struct{}

var _ Policy = EDF{}

// Name implements Policy.
func (EDF) Name() string { return "EDF" }

// Schedule implements Policy.
func (EDF) Schedule(now, cycle float64, jobs []*Job, nodes []NodeCapacity, _ cluster.CostModel) ([]Assignment, error) {
	free := newFreeMap(nodes)
	ranked := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Status != Completed {
			ranked = append(ranked, j)
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		ja, jb := ranked[a], ranked[b]
		if ja.Spec.Deadline != jb.Spec.Deadline {
			return ja.Spec.Deadline < jb.Spec.Deadline
		}
		if ja.Spec.Submit != jb.Spec.Submit {
			return ja.Spec.Submit < jb.Spec.Submit
		}
		return ja.Spec.Name < jb.Spec.Name
	})
	var out []Assignment
	for _, j := range ranked {
		var node = NoNode
		// Prefer staying put.
		if (j.Status == Running || j.Status == Paused) && free.fits(j, j.Node) {
			node = j.Node
		} else if n, ok := free.firstFit(j); ok {
			node = n
		}
		if node == NoNode {
			continue // preempted or left queued
		}
		speed := free.claim(j, node)
		out = append(out, Assignment{Job: j, Node: node, SpeedMHz: speed})
	}
	return out, nil
}

// sortBySubmit orders jobs by submission time (ties by name) in place.
func sortBySubmit(jobs []*Job) {
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].Spec.Submit != jobs[b].Spec.Submit {
			return jobs[a].Spec.Submit < jobs[b].Spec.Submit
		}
		return jobs[a].Spec.Name < jobs[b].Spec.Name
	})
}

// freeMap tracks per-node free CPU and memory during one scheduling pass.
type freeMap struct {
	order []NodeCapacity
	cpu   map[int]float64
	mem   map[int]float64
}

func newFreeMap(nodes []NodeCapacity) *freeMap {
	f := &freeMap{
		order: append([]NodeCapacity(nil), nodes...),
		cpu:   make(map[int]float64, len(nodes)),
		mem:   make(map[int]float64, len(nodes)),
	}
	for _, n := range nodes {
		f.cpu[int(n.ID)] = n.CPUMHz
		f.mem[int(n.ID)] = n.MemMB
	}
	return f
}

// fits reports whether the job's memory and a positive CPU share are
// available on the node.
func (f *freeMap) fits(j *Job, node cluster.NodeID) bool {
	id := int(node)
	cpu, ok := f.cpu[id]
	if !ok {
		return false
	}
	return f.mem[id] >= j.Spec.MemoryAt(j.Done)-1e-9 && cpu > 1e-9
}

// firstFit returns the first node (in capacity order) that fits the job.
func (f *freeMap) firstFit(j *Job) (cluster.NodeID, bool) {
	for _, n := range f.order {
		if f.fits(j, n.ID) {
			return n.ID, true
		}
	}
	return NoNode, false
}

// claim reserves the job's memory and as much CPU as it can use on the
// node, returning the granted speed.
func (f *freeMap) claim(j *Job, node cluster.NodeID) float64 {
	id := int(node)
	cpu := f.cpu[id]
	speed := j.Spec.MaxSpeedAt(j.Done)
	if cpu < speed {
		speed = cpu
	}
	if speed < 0 {
		speed = 0
	}
	f.cpu[id] = cpu - speed
	f.mem[id] -= j.Spec.MemoryAt(j.Done)
	return speed
}
