package daemon

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynplace"
	"dynplace/internal/cluster"
)

// hostsHorizon is how long each seeded schedule runs: 31 cycles of 60 s.
const hostsHorizon = 1800

// nodeEvent is one node-lifecycle change of a seeded schedule.
type nodeEvent struct {
	at   float64
	kind string // "fail", "drain" or "add"
	node int    // the target's ID (fail, drain)
}

// hostSchedule is one seeded scenario both cycle hosts run.
type hostSchedule struct {
	jobs   []dynplace.JobSpec
	web    *dynplace.WebAppSpec
	events []nodeEvent // in time order
}

// drawSchedule draws the scenario of one seed for the 2 × 3 000 MHz
// cluster of newTestDaemon.
func drawSchedule(seed int64) hostSchedule {
	rng := rand.New(rand.NewSource(seed))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	var s hostSchedule
	for i, n := 0, 2+rng.Intn(7); i < n; i++ {
		spec := dynplace.JobSpec{
			Name:     fmt.Sprintf("job-%d", i),
			Submit:   uniform(0, 400),
			MemoryMB: uniform(400, 1500),
		}
		speed := uniform(500, 3000)
		runtime := uniform(100, 800)
		if rng.Intn(2) == 0 {
			spec.WorkMcycles, spec.MaxSpeedMHz = speed*runtime, speed
		} else {
			first := uniform(0.2, 0.8)
			spec.Stages = []dynplace.Stage{
				{WorkMcycles: speed * runtime * first, MaxSpeedMHz: speed, MemoryMB: spec.MemoryMB},
				{WorkMcycles: speed * runtime * (1 - first), MaxSpeedMHz: uniform(500, 3000), MemoryMB: uniform(400, 1500)},
			}
		}
		spec.Deadline = spec.Submit + runtime*uniform(1.2, 4)
		s.jobs = append(s.jobs, spec)
	}
	// λ·c stays at most 2 400 MHz, so the web app is stable on the one
	// node a failure or drain may leave.
	if rng.Intn(2) == 0 {
		s.web = &dynplace.WebAppSpec{
			Name: "web", ArrivalRate: uniform(5, 30), DemandPerRequest: uniform(40, 80),
			GoalResponseTime: uniform(0.2, 0.5), MemoryMB: uniform(600, 1200),
		}
		if rng.Intn(2) == 0 {
			start := uniform(0, 900)
			s.web.LoadSchedule = []dynplace.LoadPhase{
				{Start: start, ArrivalRate: uniform(0, 30)},
				{Start: start + uniform(0, 900), ArrivalRate: uniform(0, 30)},
			}
		}
	}
	// Node events fall strictly inside a cycle, never on a multiple of
	// it: the Runner fires a node event due at a cycle's instant before
	// that cycle, but a daemon API call cannot be ordered before the tick
	// the clock fires at the same instant.
	eventTime := func() float64 { return float64(60*rng.Intn(20) + 1 + rng.Intn(59)) }
	switch rng.Intn(3) {
	case 1:
		s.events = append(s.events, nodeEvent{at: eventTime(), kind: "fail", node: rng.Intn(2)})
	case 2:
		s.events = append(s.events, nodeEvent{at: eventTime(), kind: "drain", node: rng.Intn(2)})
	}
	if rng.Intn(2) == 0 {
		add := nodeEvent{at: eventTime(), kind: "add"}
		if len(s.events) > 0 && add.at < s.events[0].at {
			s.events = append([]nodeEvent{add}, s.events...)
		} else {
			s.events = append(s.events, add)
		}
	}
	return s
}

// hostRun is what one host reports about a schedule: ω_G and the web
// utility at each cycle, and each job's outcome by name.
type hostRun struct {
	omegaG, webUtil []float64
	jobs            map[string]dynplace.JobResult
}

// runSystem runs the schedule on the simulated host.
func runSystem(t *testing.T, s hostSchedule) hostRun {
	t.Helper()
	sys, err := dynplace.NewSystem(dynplace.WithUniformCluster(2, 3000, 4096),
		dynplace.WithControlCycle(60), dynplace.WithDynamicPlacement(),
		dynplace.WithFreePlacementActions())
	if err != nil {
		t.Fatal(err)
	}
	if s.web != nil {
		if err := sys.AddWebApp(*s.web); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range s.jobs {
		if err := sys.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range s.events {
		switch ev.kind {
		case "fail":
			err = sys.FailNode(ev.at, ev.node)
		case "drain":
			err = sys.DrainNode(ev.at, ev.node)
		case "add":
			err = sys.AddNode(ev.at, "extra", 3000, 4096)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(hostsHorizon); err != nil {
		t.Fatal(err)
	}
	var run hostRun
	for _, pt := range sys.BatchAllocationSeries() {
		run.omegaG = append(run.omegaG, pt.Value)
	}
	if s.web != nil {
		for _, pt := range sys.WebUtilitySeries(s.web.Name) {
			run.webUtil = append(run.webUtil, pt.Value)
		}
	}
	run.jobs = jobsByName(sys.JobResults())
	return run
}

// runDaemon runs the schedule on a SimClock daemon, stepping the clock
// 1 s at a time and issuing each node event at its instant.
func runDaemon(t *testing.T, s hostSchedule) hostRun {
	t.Helper()
	d, clock, _ := newTestDaemon(t)
	if s.web != nil {
		if err := d.AddWebApp(*s.web, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range s.jobs {
		if err := d.SubmitJob(j, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var run hostRun
	events := s.events
	for now := 0.0; now <= hostsHorizon; now++ {
		clock.Advance(min(now, 1)) // the first step fires the cycle at 0
		for len(events) > 0 && events[0].at == now {
			ev := events[0]
			events = events[1:]
			var err error
			switch ev.kind {
			case "fail":
				err = d.FailNode(d.nodeName(cluster.NodeID(ev.node)))
			case "drain":
				err = d.DrainNode(d.nodeName(cluster.NodeID(ev.node)))
			case "add":
				_, err = d.AddNode("extra", 3000, 4096)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if math.Mod(now, 60) != 0 {
			continue
		}
		snap := d.Placement()
		if snap.Time != now || snap.Err != "" {
			t.Fatalf("t=%v: placement of t=%v, err %q", now, snap.Time, snap.Err)
		}
		run.omegaG = append(run.omegaG, snap.OmegaGMHz)
		if s.web != nil {
			run.webUtil = append(run.webUtil, snap.Web[0].Utility)
		}
	}
	run.jobs = jobsByName(d.JobResults())
	return run
}

func jobsByName(results []dynplace.JobResult) map[string]dynplace.JobResult {
	out := make(map[string]dynplace.JobResult, len(results))
	for _, r := range results {
		out[r.Name] = r
	}
	return out
}

// firstDiff returns the first cycle at which two series differ by bit
// pattern or in length, or -1 if they are equal.
func firstDiff(a, b []float64) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestHostsAgree runs seeded schedules — job submits, an optional web
// app with load phases, node failure, drain and join — on the simulated
// System and on a SimClock daemon. Both hosts run one control step, so
// they must agree bit for bit: ω_G and the web utility at every cycle,
// and every job's completion instant and action counts at the end.
func TestHostsAgree(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := drawSchedule(seed)
		sys, dmn := runSystem(t, s), runDaemon(t, s)
		if i := firstDiff(sys.omegaG, dmn.omegaG); i >= 0 {
			t.Fatalf("seed %d: ω_G from cycle %d: System %v, daemon %v", seed, i, sys.omegaG[i:], dmn.omegaG[i:])
		}
		if i := firstDiff(sys.webUtil, dmn.webUtil); i >= 0 {
			t.Fatalf("seed %d: web utility from cycle %d: System %v, daemon %v", seed, i, sys.webUtil[i:], dmn.webUtil[i:])
		}
		for _, spec := range s.jobs {
			a, okA := sys.jobs[spec.Name]
			b, okB := dmn.jobs[spec.Name]
			if !okA || !okB || a.Completed != b.Completed || math.Float64bits(a.CompletedAt) != math.Float64bits(b.CompletedAt) ||
				a.Suspends != b.Suspends || a.Resumes != b.Resumes ||
				a.Migrations != b.Migrations || a.Rescues != b.Rescues {
				t.Fatalf("seed %d: job %s differs:\nSystem %+v\ndaemon %+v", seed, spec.Name, a, b)
			}
		}
	}
}
