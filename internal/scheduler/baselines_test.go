package scheduler

import (
	"math"
	"testing"

	"dynplace/internal/cluster"
	"dynplace/internal/metrics"
)

func twoNodes(cpu, mem float64) []NodeCapacity {
	return []NodeCapacity{
		{ID: 0, CPUMHz: cpu, MemMB: mem},
		{ID: 1, CPUMHz: cpu, MemMB: mem},
	}
}

func pending(name string, work, speed, mem, submit, deadline float64) *Job {
	return NewJob(spec(name, work, speed, mem, submit, deadline))
}

func TestFCFSStartsInSubmitOrder(t *testing.T) {
	nodes := twoNodes(2000, 1500)
	a := pending("a", 4000, 1000, 750, 0, 40)
	b := pending("b", 4000, 1000, 750, 1, 40)
	c := pending("c", 4000, 1000, 750, 2, 40)
	d := pending("d", 4000, 1000, 750, 3, 40)
	e := pending("e", 4000, 1000, 750, 4, 40)
	jobs := []*Job{e, c, a, d, b} // shuffled input
	asg, err := FCFS{}.Schedule(10, 1, jobs, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// Two jobs fit per node by memory: a,b,c,d start; e waits.
	if len(asg) != 4 {
		t.Fatalf("assignments = %d, want 4", len(asg))
	}
	got := map[string]bool{}
	for _, x := range asg {
		got[x.Job.Spec.Name] = true
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if !got[name] {
			t.Fatalf("%s not started; assignments %v", name, got)
		}
	}
	if got["e"] {
		t.Fatal("e started out of capacity")
	}
}

func TestFCFSNeverPreempts(t *testing.T) {
	nodes := twoNodes(1000, 1500)
	long := pending("long", 100000, 1000, 750, 0, 50) // will blow its goal
	long.Status = Running
	long.Node = 0
	long.SpeedMHz = 1000
	long.Started = true
	urgent := pending("urgent", 500, 1000, 750, 5, 6)
	jobs := []*Job{long, urgent}
	asg, err := FCFS{}.Schedule(5, 1, jobs, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	counter := metrics.NewCounter()
	Apply(5, jobs, asg, cluster.FreeCostModel(), counter)
	if long.Status != Running || long.Node != 0 {
		t.Fatal("FCFS preempted a running job")
	}
	if counter.Get(ActionSuspend) != 0 {
		t.Fatal("FCFS suspended a job")
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Head needs 1200 MB; only 1000 free. A later job would fit but FCFS
	// must not backfill past the head.
	nodes := []NodeCapacity{{ID: 0, CPUMHz: 1000, MemMB: 1000}}
	big := pending("big", 1000, 500, 1200, 0, 50)
	small := pending("small", 1000, 500, 800, 1, 50)
	asg, err := FCFS{}.Schedule(2, 1, []*Job{big, small}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(asg) != 0 {
		t.Fatalf("assignments = %v, want none (head blocks)", asg)
	}
}

func TestEDFPreemptsForEarlierDeadline(t *testing.T) {
	nodes := []NodeCapacity{{ID: 0, CPUMHz: 1000, MemMB: 750}}
	relaxed := pending("relaxed", 4000, 1000, 750, 0, 100)
	relaxed.Status = Running
	relaxed.Node = 0
	relaxed.SpeedMHz = 1000
	relaxed.Started = true
	urgent := pending("urgent", 500, 1000, 750, 5, 7)
	jobs := []*Job{relaxed, urgent}
	asg, err := EDF{}.Schedule(5, 1, jobs, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	counter := metrics.NewCounter()
	changes := Apply(5, jobs, asg, cluster.FreeCostModel(), counter)
	if urgent.Status != Running {
		t.Fatal("EDF did not start the urgent job")
	}
	if relaxed.Status != Suspended {
		t.Fatal("EDF did not preempt the relaxed job")
	}
	if changes != 1 {
		t.Fatalf("changes = %d, want 1 (the suspend)", changes)
	}
}

func TestEDFPrefersCurrentNode(t *testing.T) {
	nodes := twoNodes(1000, 1500)
	j := pending("j", 4000, 1000, 750, 0, 100)
	j.Status = Running
	j.Node = 1
	j.SpeedMHz = 1000
	j.Started = true
	asg, err := EDF{}.Schedule(1, 1, []*Job{j}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(asg) != 1 || asg[0].Node != 1 {
		t.Fatalf("EDF moved a job for no reason: %+v", asg)
	}
}

func TestEDFOrderDeterministic(t *testing.T) {
	nodes := []NodeCapacity{{ID: 0, CPUMHz: 3000, MemMB: 2250}}
	a := pending("a", 4000, 1000, 750, 0, 50)
	b := pending("b", 4000, 1000, 750, 0, 50) // same deadline, same submit
	c := pending("c", 4000, 1000, 750, 0, 20)
	asg1, err := EDF{}.Schedule(0, 1, []*Job{a, b, c}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	asg2, err := EDF{}.Schedule(0, 1, []*Job{c, b, a}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(asg1) != 3 || len(asg2) != 3 {
		t.Fatalf("lens = %d, %d", len(asg1), len(asg2))
	}
	// c (deadline 20) must be first in both.
	if asg1[0].Job.Spec.Name != "c" || asg2[0].Job.Spec.Name != "c" {
		t.Fatal("EDF order not by deadline")
	}
}

func TestSpeedClaimRespectsCPU(t *testing.T) {
	// Node with 1000 MHz hosting two 800-max jobs: first claims 800,
	// second gets the 200 left.
	nodes := []NodeCapacity{{ID: 0, CPUMHz: 1000, MemMB: 4000}}
	a := pending("a", 4000, 800, 750, 0, 100)
	b := pending("b", 4000, 800, 750, 1, 100)
	asg, err := FCFS{}.Schedule(2, 1, []*Job{a, b}, nodes, cluster.FreeCostModel())
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(asg) != 2 {
		t.Fatalf("assignments = %d, want 2", len(asg))
	}
	total := asg[0].SpeedMHz + asg[1].SpeedMHz
	if total > 1000+1e-9 {
		t.Fatalf("claimed %v MHz on a 1000 MHz node", total)
	}
	if math.Abs(asg[0].SpeedMHz-800) > 1e-9 || math.Abs(asg[1].SpeedMHz-200) > 1e-9 {
		t.Fatalf("speeds = %v, %v; want 800, 200", asg[0].SpeedMHz, asg[1].SpeedMHz)
	}
}

func TestPolicyNames(t *testing.T) {
	if (FCFS{}).Name() != "FCFS" || (EDF{}).Name() != "EDF" {
		t.Fatal("policy names wrong")
	}
}
