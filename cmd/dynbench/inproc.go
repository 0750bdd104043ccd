package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/daemon"
	"dynplace/internal/forecast"
	"dynplace/internal/obs"
	"dynplace/internal/store"
	"dynplace/internal/trace"
	"dynplace/internal/txn"
)

// cycleWorkload describes one in-process workload: a durable daemon on
// a SimClock whose control cycles the harness fires one at a time, with
// the daemon's shipped defaults except where a field states a size.
type cycleWorkload struct {
	name         string
	nodes        int
	shards       int
	cycleSeconds float64 // the control cycle T
	webApps      int
	initialJobs  int
	arrivals     int       // jobs submitted before every cycle
	rates        rateRange // the web apps' arrival rates

	// replay selects the diurnal trace replay (forecast on, load events
	// from the trace) instead of the synthetic arrival stream;
	// season is the trace's period in seconds.
	replay bool
	season float64

	// cyclesPerSecond sizes the timed work: every round of a run times
	// cyclesPerSecond × cycleShare × seconds ÷ rounds control windows, the
	// number the reference box completes in that time. The work is fixed
	// rather than the time because cycle cost is far from stationary (one
	// adoption more and a flat solve takes three passes instead of one):
	// two runs must time the same cycles to be comparable, and a faster
	// commit must be measured on the cycles the slower one was.
	cyclesPerSecond float64
	// scenario, when not zero, seeds the stream the jobs and arrival
	// rates are drawn from, whatever the run's seed (see scaleScenario).
	scenario int64
	// warmup control cycles run, untimed, at the end of every set-up: two,
	// or for the replay one season, which its forecaster needs to fill
	// its seasonal template.
	warmup int
}

const (
	// rounds is how many times a run repeats its whole measurement —
	// set-up, the timed cycles, the bursts, the route slices, recovery —
	// on identical inputs. Every figure is the median over the rounds
	// (the cycle figures window by window), so a few slow seconds on a
	// shared box spoil one sample of three and not the run. (What the
	// reference box does over minutes they cannot help: see README.md.)
	rounds = 3
	// cycleShare of the measurement window is what the timed cycles of
	// all rounds add up to on the reference box, routeShare what the
	// route slices do, readShare the placement reads and recoverShare the
	// recoveries.
	cycleShare   = 0.85
	routeShare   = 0.15
	readShare    = 0.05
	recoverShare = 1.0 / 15
	// routeSlices closed-loop slices per round make up the route phase.
	routeSlices = 2
	// A round sets up once, and up to maxSetupsPerRound times while the
	// set-ups are so short that those of all rounds add up to less than
	// setupShare of the window; setup_s is the median of them all.
	maxSetupsPerRound = 5
	setupShare        = 0.1
	// burstWrites load updates per round and readShare of the window in
	// placement reads (minBurstReads per round at least), back to back
	// after the cycle phase, are what the mutation-ack and read medians
	// summarize: the handful of mutations and the single read that
	// accompany each cycle are too few for a steady median.
	burstWrites   = 150
	minBurstReads = 20
)

// instance is one daemon built by setup, with the input streams that
// feed it.
type instance struct {
	w     cycleWorkload
	dir   string
	clock *daemon.SimClock
	d     *daemon.Daemon
	api   *handlerAPI
	gen   *inputs
	fp    *footprints
	apps  []string

	steps   int // windows stepped so far, warm-up included
	nextJob int

	// replay state
	tr        *trace.ReplayTrace
	nextLoad  int
	rates     map[string]float64
	templates map[string]*txn.App
}

// config assembles the daemon configuration: shipped defaults, plus
// rings large enough that the output checks see the whole run.
func (w cycleWorkload) config(clock daemon.Clock, st *store.Store, tr *trace.ReplayTrace) daemon.Config {
	cfg := daemon.Config{
		CycleSeconds: w.cycleSeconds,
		Costs:        cluster.DefaultCostModel(),
		Dynamic:      control.DynamicConfig{Shards: w.shards},
		Clock:        clock,
		History:      1 << 15,
		RetainJobs:   1 << 16,
		Store:        st,
	}
	if w.replay {
		// The estimator configuration RunReplaySweep derives.
		cfg.Dynamic.Forecast = &forecast.Config{
			SeasonSeconds:   tr.SeasonSeconds,
			Slots:           48,
			LevelTauSeconds: 2 * w.cycleSeconds,
			TrendTauSeconds: 2 * w.cycleSeconds,
			SeasonalGamma:   0.2,
		}
	}
	return cfg
}

// open builds a daemon on dir and recovers it.
func (w cycleWorkload) open(dir string, tr *trace.ReplayTrace) (*daemon.Daemon, *daemon.SimClock, error) {
	cl, err := cluster.Uniform(w.nodes, nodeCPUMHz, nodeMemMB)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	clock := daemon.NewSimClock()
	cfg := w.config(clock, st, tr)
	cfg.Cluster = cl
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := d.Recover(); err != nil {
		return nil, nil, err
	}
	return d, clock, nil
}

// scenarioSeed is the seed of the stream the solver's inputs are drawn
// from: the -scenario flag's, else the workload's fixed one, else the
// run's.
func (w cycleWorkload) scenarioSeed(e *env) int64 {
	switch {
	case e.scenario != 0:
		return e.scenario
	case w.scenario != 0:
		return w.scenario
	}
	return e.seed
}

// setup builds the workload's daemon from nothing to its first timed
// operation: cluster, daemon, recovery of an empty state directory,
// registration of apps and initial jobs, the initial placement and the
// warm-up cycles.
func (w cycleWorkload) setup(e *env) (*instance, error) {
	dir, err := os.MkdirTemp(e.workDir, w.name+"-state-")
	if err != nil {
		return nil, err
	}
	onExit(func() { _ = os.RemoveAll(dir) })
	in := &instance{w: w, dir: dir, gen: newInputs(w.scenarioSeed(e)), fp: newFootprints()}
	if w.replay {
		in.tr = replayTraceFor(e.seed, w)
	}
	in.d, in.clock, err = w.open(dir, in.tr)
	if err != nil {
		return nil, err
	}
	in.api = &handlerAPI{h: in.d.Handler()}

	if w.replay {
		in.rates = make(map[string]float64)
		in.templates = make(map[string]*txn.App)
		for _, a := range in.tr.Apps {
			spec := dynplace.WebAppSpec{
				Name: a.Name, ArrivalRate: a.ArrivalRate, DemandPerRequest: a.DemandPerRequest,
				BaseLatency: a.BaseLatency, GoalResponseTime: a.GoalResponseTime,
				MaxPowerMHz: a.MaxPowerMHz, MemoryMB: a.MemoryMB,
			}
			if err := in.d.AddWebApp(spec, false); err != nil {
				return nil, err
			}
			in.fp.addWeb(spec)
			in.apps = append(in.apps, a.Name)
			in.rates[a.Name] = a.ArrivalRate
			in.templates[a.Name] = a
		}
		for _, j := range in.tr.Jobs {
			st := j.Stages[0]
			spec := dynplace.JobSpec{
				Name: j.Name, WorkMcycles: st.WorkMcycles, MaxSpeedMHz: st.MaxSpeedMHz,
				MemoryMB: st.MemoryMB, Submit: j.Submit, DesiredStart: j.DesiredStart, Deadline: j.Deadline,
			}
			if err := in.d.SubmitJob(spec, false); err != nil {
				return nil, err
			}
			in.fp.jobMemMB[j.Name] = st.MemoryMB
			in.fp.jobDeadline[j.Name] = j.Deadline
		}
	} else {
		for i := 0; i < w.webApps; i++ {
			spec := webSpec(i, in.gen.webRate(in.w.rates))
			if err := in.d.AddWebApp(spec, false); err != nil {
				return nil, err
			}
			in.fp.addWeb(spec)
			in.apps = append(in.apps, spec.Name)
		}
		for j := 0; j < w.initialJobs; j++ {
			spec := in.gen.scaleJob(in.jobName(), w.cycleSeconds)
			if err := in.d.SubmitJob(spec, true); err != nil {
				return nil, err
			}
			in.fp.addJob(spec, 0)
		}
	}
	if err := in.d.Start(); err != nil {
		return nil, err
	}
	in.clock.Advance(0) // fires cycle 1, the initial placement, at t = 0
	for k := 0; k < w.warmup; k++ {
		if err := in.step(nil); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *instance) jobName() string {
	in.nextJob++
	return fmt.Sprintf("job-%05d", in.nextJob)
}

// discard stops the daemon, closes its store and removes its state.
func (in *instance) discard() {
	_ = in.d.Shutdown() // the state directory is deleted next
	_ = os.RemoveAll(in.dir)
}

// timeSetups times at least minReps set-ups, and up to maxReps while
// they add up to less than budget seconds, and keeps the last; the
// others are discarded as soon as the next begins.
func timeSetups[T interface{ discard() }](minReps, maxReps int, budget float64, setup func() (T, error)) (kept T, seconds []float64, err error) {
	var total float64
	for i := 0; i < minReps || (total < budget && i < maxReps); i++ {
		if i > 0 {
			kept.discard()
		}
		t0 := time.Now()
		if kept, err = setup(); err != nil {
			return kept, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		total += seconds[i]
	}
	return kept, seconds, nil
}

// measure collects one timed window's samples. A nil measure marks an
// untimed warm-up step.
type measure struct {
	rec *recorder

	// cycleMs[k] is window k's control cycle, windowS[k] everything the
	// window did: its mutations, dispatches, cycle and placement read.
	cycleMs, windowS []float64
	mutations        int
	busy             time.Duration

	attempted, failed int
	checks            *checklist

	// webRatio[k] holds the realized response-time/goal ratios of the
	// replay's timed window k, one per app.
	webRatio [][]float64
	// routedBatch counts requests pushed through batch dispatch.
	routedBatch, rejectedBatch int
}

// recorder returns the span recorder of a timed step, nil for a warm-up
// step (a nil recorder records nothing).
func (m *measure) recorder() *recorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// timedCall performs one request under a harness span and returns how
// long it took. A non-2xx reply counts as a failed operation.
func (in *instance) timedCall(m *measure, parent int64, name, method, path string, body []byte) (time.Duration, []byte, error) {
	rec := m.recorder()
	sp := rec.begin(parent, name)
	t0 := time.Now()
	status, resp, err := in.api.do(method, path, body)
	dt := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return dt, nil, err
	}
	if m != nil {
		m.attempted++
		m.busy += dt
		if !ok(status) {
			m.failed++
			m.checks.fail("requests_succeed", "%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
		}
	} else if !ok(status) {
		return dt, nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	return dt, resp, nil
}

// step runs one control window: the window's mutations, then the clock
// advance that fires exactly one control cycle, then one placement
// read. With a measure the three are timed and the published placement
// is checked.
func (in *instance) step(m *measure) error {
	w := in.w
	T := w.cycleSeconds
	in.steps++
	wEnd := float64(in.steps) * T
	rec := m.recorder()
	var busy0 time.Duration
	if m != nil {
		busy0 = m.busy
	}
	root := rec.begin(0, "window")
	defer rec.end(root)

	mutate := func(name, path string, body []byte) error {
		_, _, err := in.timedCall(m, root, name, http.MethodPost, path, body)
		if m != nil {
			m.mutations++
		}
		return err
	}

	if w.replay {
		if err := in.replayWindow(m, root, wEnd, mutate); err != nil {
			return err
		}
	} else {
		for _, app := range in.apps {
			if err := mutate("set_load", "/v1/apps/"+app+"/load", setLoadBody(in.gen.webRate(in.w.rates))); err != nil {
				return err
			}
		}
		for a := 0; a < w.arrivals; a++ {
			spec := in.gen.scaleJob(in.jobName(), T)
			in.fp.addJob(spec, in.clock.Now())
			if err := mutate("submit_job", "/v1/jobs", submitJobBody(spec)); err != nil {
				return err
			}
		}
	}

	before := in.d.Health().Cycles
	sp := rec.begin(root, "cycle")
	t0 := time.Now()
	in.clock.Advance(wEnd - in.clock.Now())
	dt := time.Since(t0)
	rec.end(sp)
	if got := in.d.Health().Cycles - before; got != 1 {
		return fmt.Errorf("%s: window %d fired %d control cycles, want 1", w.name, in.steps, got)
	}
	if m == nil {
		return nil
	}
	m.attempted++
	m.busy += dt
	m.cycleMs = append(m.cycleMs, dt.Seconds()*1e3)
	if rec != nil {
		in.importCycleSpans(rec, sp, before+1)
	}

	if _, _, err := in.timedCall(m, root, "read_placement", http.MethodGet, "/v1/placement", nil); err != nil {
		return err
	}

	m.windowS = append(m.windowS, (m.busy - busy0).Seconds())

	snap := in.d.Placement()
	if snap.Err != "" || snap.Infeasible {
		m.failed++
	}
	m.checks.verify("placement_feasible_within_capacity", checkPlacement(snap, in.fp))
	return nil
}

// replayWindow applies the trace's load events that fall in the window
// ending at wEnd — each reported to the daemon a sensor delay after the
// rate actually moved, as in the replay sweep — scores the plan that
// governed the window against the rate the trace delivered, and pushes
// the window's request volume through the router.
func (in *instance) replayWindow(m *measure, root int64, wEnd float64, mutate func(name, path string, body []byte) error) error {
	T := in.w.cycleSeconds
	wStart := wEnd - T
	sensorDelay := math.Min(1, T/4)

	allocs := make(map[string]float64, len(in.apps))
	for _, w := range in.d.Placement().Web {
		allocs[w.Name] = w.AllocMHz
	}
	integral := make(map[string]float64, len(in.apps))
	segStart := wStart
	for in.nextLoad < len(in.tr.Loads) && in.tr.Loads[in.nextLoad].Time < wEnd {
		ev := in.tr.Loads[in.nextLoad]
		in.nextLoad++
		if ev.Time > segStart {
			for _, name := range in.apps {
				integral[name] += in.rates[name] * (ev.Time - segStart)
			}
			segStart = ev.Time
		}
		obsT := math.Min(ev.Time+sensorDelay, wEnd-1e-9)
		if now := in.clock.Now(); obsT > now {
			in.clock.Advance(obsT - now)
		}
		if err := mutate("set_load", "/v1/apps/"+ev.App+"/load", setLoadBody(ev.Rate)); err != nil {
			return err
		}
		in.rates[ev.App] = ev.Rate
	}
	var ratios []float64
	for _, name := range in.apps {
		integral[name] += in.rates[name] * (wEnd - segStart)
		realized := integral[name] / T
		app := *in.templates[name]
		app.ArrivalRate = realized
		ratios = append(ratios, rtGoalRatio(app.Utility(allocs[name])))

		n := int(math.Round(realized * T))
		if n < 2 {
			continue // n ≤ 1 is the single-request form of the route call
		}
		_, resp, err := in.timedCall(m, root, "dispatch_batch", http.MethodPost,
			"/v1/route/"+name, []byte(fmt.Sprintf(`{"n":%d}`, n)))
		if err != nil {
			return err
		}
		if m != nil && resp != nil {
			var br daemon.BatchRouteResponse
			if err := json.Unmarshal(resp, &br); err == nil {
				m.routedBatch += br.Requests
				m.rejectedBatch += br.Rejected
			}
		}
	}
	if m != nil {
		m.webRatio = append(m.webRatio, ratios)
	}
	return nil
}

// importCycleSpans copies the daemon's own span timeline of the given
// cycle under the harness's cycle span. An unknown cycle or a reply
// that does not parse is skipped: imported spans add detail, they
// never decide a result.
func (in *instance) importCycleSpans(rec *recorder, parent int64, cycle int64) {
	var view obs.TraceView
	if err := getJSON(in.api, fmt.Sprintf("/v1/debug/cycles/%d", cycle), &view); err != nil {
		return
	}
	importTrace(rec, parent, view)
}

func importTrace(rec *recorder, parent int64, view obs.TraceView) {
	for _, s := range view.Spans {
		rec.importChild(parent, s.Name,
			time.Duration(s.StartMicros)*time.Microsecond,
			time.Duration(s.DurationMicros)*time.Microsecond)
	}
}

// round is one repetition of a run's measurement, on a daemon of its
// own built from the same inputs as every other round's.
type round struct {
	in     *instance
	setupS []float64
	m      *measure
	cyc    cycleStats
	burst  burstStats
	route  []routeSlice
	place  *daemon.PlacementSnapshot // as published when the cycle phase ended
	sc     scores
	rcv    recovery
}

// close shuts the round's recovered daemon down and removes its state.
func (rd *round) close() {
	_ = rd.rcv.d.Shutdown() // the state directory is deleted next
	_ = os.RemoveAll(rd.in.dir)
}

// round runs the index-th round: set-up, the timed windows, a burst of
// writes and reads, the route slices, scoring of what the daemon decided,
// and recovery of the state it left behind.
func (w cycleWorkload) round(e *env, out *outcome, rss *rssSampler, index, cycles int) (*round, error) {
	debug.FreeOSMemory() // every round starts from a collected heap and the resident set of one
	rd := &round{m: &measure{rec: e.rec, checks: out.checks}}
	in, setupS, err := timeSetups(1, maxSetupsPerRound, setupShare*e.seconds/rounds, func() (*instance, error) { return w.setup(e) })
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	rd.in, rd.setupS = in, setupS
	fail := func(err error) (*round, error) {
		in.discard()
		return nil, err
	}
	// rss_mb is the resident set while the daemon works: from the first
	// timed cycle of a round to the end of its route slices.
	rss.on.Store(true)
	defer rss.on.Store(false)
	if rd.cyc, err = in.cyclePhase(rd.m, cycles); err != nil {
		return fail(err)
	}
	if rd.burst, err = in.burstPhase(e, rd.m); err != nil {
		return fail(err)
	}
	rd.place = in.d.Placement()
	sets := instanceSets(rd.place)
	slice := time.Duration(e.seconds * routeShare / (rounds * routeSlices) * float64(time.Second))
	for s := 0; s < routeSlices; s++ {
		rd.route = append(rd.route, runRouteSlice(e, slice, index*routeSlices+s, in.apps, nil, sets,
			func() api { return &handlerAPI{h: in.api.h} }, out.checks))
	}
	rss.on.Store(false)
	if rd.sc, err = in.score(rd.m, out, cycles); err != nil {
		return fail(err)
	}
	if rd.rcv, err = in.recoverPhase(e, out); err != nil {
		return fail(err)
	}
	return rd, nil
}

// overRounds is the median over the rounds of one figure.
func overRounds(rds []*round, figure func(*round) float64) float64 {
	xs := make([]float64, len(rds))
	for i, rd := range rds {
		xs[i] = figure(rd)
	}
	return median(xs)
}

// windowMedians takes one series per round, all of the same timed
// windows, and returns window by window the median over the rounds.
func windowMedians(series [][]float64) []float64 {
	out := make([]float64, len(series[0]))
	col := make([]float64, len(series))
	for k := range out {
		for r := range series {
			col[r] = series[r][k]
		}
		out[k] = median(col)
	}
	return out
}

// run executes the workload once — rounds times over — and reports its
// metrics.
func (w cycleWorkload) run(e *env) (*outcome, error) {
	out := newOutcome()
	out.checks.pass("requests_succeed")
	cycles := max(3, int(math.Round(w.cyclesPerSecond*cycleShare*e.seconds/rounds)))

	rss := startRSSSampler(os.Getpid())
	rss.on.Store(false)
	var rds []*round
	for r := 0; r < rounds; r++ {
		rd, err := w.round(e, out, rss, r, cycles)
		if err != nil {
			rss.finish()
			return nil, err
		}
		if r > 0 {
			rds[r-1].close()
		}
		rds = append(rds, rd)
	}
	rssSamples := rss.finish()
	last := rds[rounds-1]
	defer last.close()

	var setupS []float64
	var slices []routeSlice
	var cycleMs, windowS [][]float64
	mutations := 0
	for _, rd := range rds {
		setupS = append(setupS, rd.setupS...)
		slices = append(slices, rd.route...)
		cycleMs, windowS = append(cycleMs, rd.m.cycleMs), append(windowS, rd.m.windowS)
		out.attempted += rd.m.attempted
		out.failed += rd.m.failed
		mutations += rd.m.mutations
		// The rounds ran the same inputs: the daemon must have decided the
		// same every time.
		if rd.sc.historyHash != last.sc.historyHash {
			out.checks.fail("rounds_identical", "two rounds of the same inputs left different cycle histories (%s, %s)", rd.sc.historyHash, last.sc.historyHash)
		}
	}
	out.checks.pass("rounds_identical")
	rp := summarizeRoute(slices, out.checks)
	out.attempted += rp.attempted
	out.failed += rp.failed
	var busy float64
	for _, s := range windowMedians(windowS) {
		busy += s
	}
	perSecond := float64(cycles) / busy
	sc := last.sc
	readMs := func(rd *round) float64 { return median(rd.burst.readMs) }
	recoverS := func(rd *round) float64 { return median(rd.rcv.seconds) }
	across := fmt.Sprintf("median of %d rounds", rounds)

	out.set("setup_s", median(setupS), len(setupS), "median of set-ups")
	out.set("cycles_per_s", perSecond, cycles, "timed windows over the time spent in their mutations, cycles and reads; each window the "+across)
	out.set("rss_mb", median(rssSamples), len(rssSamples), "median VmRSS, sampled every 50 ms")
	out.set("route_rps", rp.rps, rp.requests, fmt.Sprintf("median of %d slices", rp.slices))
	out.set("read_p50_ms", overRounds(rds, readMs), len(last.burst.readMs), "burst of placement reads; "+across)
	out.set("recover_s", overRounds(rds, recoverS), len(last.rcv.seconds), fmt.Sprintf("%d records replayed; %s", last.rcv.durability.ReplayedRecords, across))
	out.set("web_rt_goal_ratio", mean(sc.ratios), len(sc.ratios), fmt.Sprintf("mean over %d scored cycles", cycles))
	out.set("job_utility_mean", sc.jobUtility, sc.completed, "jobs completed inside the timed cycles")
	out.set("web_utility_min", sc.utilityMin, len(sc.ratios), "")
	out.set("jobs_ontime_pct", sc.ontimePct, sc.due, "jobs whose deadline fell inside the timed cycles")
	out.set("placement_changes", float64(sc.changes), cycles, "")

	out.historyHash = sc.historyHash
	out.info["rounds"] = rounds
	out.info["timed_cycles"] = cycles
	out.info["jobs_completed"] = sc.completed
	out.info["jobs_due"] = sc.due
	out.info["route_requests"] = rp.requests
	out.info["mutations"] = mutations

	// The per-layer figures that need neither spans nor probes — among
	// them what the issue listed end to end but cannot hold a bound on
	// this box (README.md says why) — are measured without tracing too.
	var mutateMs []float64
	for _, rd := range rds {
		mutateMs = append(mutateMs, rd.burst.mutateMs...)
	}
	mutP99, _ := tail(mutateMs)
	cyc := windowMedians(cycleMs)
	tailMs, tailPct := tail(cyc)
	out.set("daemon.cycle_p50_ms", median(cyc), cycles, "each cycle the "+across)
	out.set("daemon.cycle_tail_ms", tailMs, cycles, fmt.Sprintf("p%d", tailPct))
	out.set("daemon.peak_rss_mb", procStatusMB(os.Getpid(), "VmHWM:"), 1, "VmHWM, probes not yet run")
	out.set("daemon.handler_route_us", rp.p50us, rp.requests, fmt.Sprintf("median of %d slices", rp.slices))
	out.set("http.mutate_ack_p50_ms", median(mutateMs), len(mutateMs), "bursts of load updates through the handler")
	out.set("http.mutate_ack_p99_ms", mutP99, len(mutateMs), "tail percentile of the bursts")
	out.set("daemon.placement_encode_ms", overRounds(rds, readMs), len(last.burst.readMs), "")
	out.set("daemon.placement_bytes", float64(last.burst.readBytes), 1, "")
	out.set("daemon.handler_load_us", median(mutateMs)*1e3, len(mutateMs), "")
	out.set("daemon.recover_ms", overRounds(rds, recoverS)*1e3, len(last.rcv.seconds), "")
	out.set("daemon.replayed_records", float64(last.rcv.durability.ReplayedRecords), 1, "")
	out.set("daemon.alloc_mb_per_cycle", overRounds(rds, func(rd *round) float64 { return float64(rd.cyc.allocBytes) / 1e6 / float64(cycles) }), cycles, "")
	out.set("daemon.gc_pause_ms_total", overRounds(rds, func(rd *round) float64 { return float64(rd.cyc.gcPauseNs) / 1e6 }), cycles, "over one round's timed cycles")
	out.set("store.wal_bytes", float64(last.cyc.walAfter.WALBytes), 1, "")
	if last.cyc.walAfter.SnapshotSeq == last.cyc.walBefore.SnapshotSeq {
		// No snapshot rotated the log during the phase.
		out.set("store.wal_bytes_per_cycle", float64(last.cyc.walAfter.WALBytes-last.cyc.walBefore.WALBytes)/float64(cycles), cycles, "")
	}
	if last.m.routedBatch > 0 {
		out.set("router.rejected_pct", 100*float64(last.m.rejectedBatch)/float64(last.m.routedBatch), last.m.routedBatch, "")
	}
	fillShardCounters(out, sc.metrics)
	fillActions(out, sc.metrics)
	fillForecast(out, last.in.d, last.in.apps)
	if !e.traced {
		return out, nil
	}
	out.set("trace.throughput", perSecond, cycles, "cycles_per_s of the traced run")
	spanLayerMetrics(out, e.rec.snapshot())
	if err := runProbes(e, out, w.probeShape(last.place), last.rcv.d, last.rcv.sample); err != nil {
		return nil, err
	}
	return out, nil
}

// cycleStats is what the timed cycle phase measured besides the
// per-window samples in measure.
type cycleStats struct {
	allocBytes          uint64
	gcPauseNs           uint64
	walBefore, walAfter store.Info
}

// cyclePhase times the given number of control windows.
func (in *instance) cyclePhase(m *measure, cycles int) (cycleStats, error) {
	var st cycleStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st.walBefore = in.d.Durability().Store
	for k := 0; k < cycles; k++ {
		if err := in.step(m); err != nil {
			return st, err
		}
	}
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	st.walAfter = in.d.Durability().Store
	return st, nil
}

// burstStats holds the burst phase's samples.
type burstStats struct {
	mutateMs, readMs []float64
	readBytes        int
}

// burstPhase issues load updates and then placement reads back to back.
// Every update re-reports the app's current rate, so the scenario the
// solver sees does not move.
func (in *instance) burstPhase(e *env, m *measure) (burstStats, error) {
	var st burstStats
	web := in.d.Placement().Web
	for i := 0; i < burstWrites; i++ {
		w := web[i%len(web)]
		dt, _, err := in.timedCall(m, 0, "set_load", http.MethodPost, "/v1/apps/"+w.Name+"/load", setLoadBody(w.ArrivalRate))
		if err != nil {
			return st, err
		}
		st.mutateMs = append(st.mutateMs, dt.Seconds()*1e3)
	}
	for begin := time.Now(); len(st.readMs) < minBurstReads || time.Since(begin).Seconds() < readShare*e.seconds/rounds; {
		dt, resp, err := in.timedCall(m, 0, "read_placement", http.MethodGet, "/v1/placement", nil)
		if err != nil {
			return st, err
		}
		st.readMs = append(st.readMs, dt.Seconds()*1e3)
		st.readBytes = len(resp)
	}
	return st, nil
}

// scores is what the daemon decided over the timed cycles.
type scores struct {
	ratios      []float64 // response time over goal, per scored cycle and app
	utilityMin  float64
	changes     int
	historyHash string
	jobUtility  float64
	ontimePct   float64
	completed   int
	due         int
	metrics     daemon.MetricsView
}

// score reads the cycle history and the job results of the timed cycles
// and runs the output checks on them.
func (in *instance) score(m *measure, out *outcome, timed int) (scores, error) {
	w := in.w
	sc := scores{utilityMin: math.Inf(1), metrics: in.d.Metrics()}
	firstCycle := int64(1 + w.warmup) // the last warm-up cycle; the timed cycles follow it
	var history []daemon.CycleSnapshot
	for _, c := range sc.metrics.History {
		if c.Cycle > firstCycle && c.Cycle <= firstCycle+int64(timed) {
			history = append(history, c)
		}
	}
	planned := scoreHistory(history, out.checks)
	sc.changes = planned.changes
	if !w.replay { // the replay is scored against the realized rate, below
		sc.ratios, sc.utilityMin = planned.ratios, planned.utilityMin
	}
	if len(history) != timed {
		out.checks.fail("cycles_feasible", "history holds %d of the %d timed cycles", len(history), timed)
	}
	if w.replay {
		for _, rs := range m.webRatio {
			for _, r := range rs {
				sc.ratios = append(sc.ratios, r)
				sc.utilityMin = math.Min(sc.utilityMin, 1-r)
			}
		}
	}
	raw, err := json.Marshal(history)
	if err != nil {
		return sc, err
	}
	sum := sha256.Sum256(raw)
	sc.historyHash = hex.EncodeToString(sum[:])

	results := in.d.JobResults()
	out.checks.verify("jobs_accounted", checkJobsAccounted(in.fp.jobDeadline, results))
	horizon := float64(w.warmup+timed) * w.cycleSeconds
	sc.jobUtility, sc.ontimePct, sc.completed, sc.due = jobQuality(results, in.fp.jobDeadline, horizon)
	if sc.ontimePct < 90 {
		out.checks.fail("jobs_ontime_floor", "%.1f%% of %d due jobs met their deadline, below 90%%", sc.ontimePct, sc.due)
	}
	out.checks.pass("jobs_ontime_floor")

	exposition, err := mustOK(in.api, http.MethodGet, "/v1/metrics/prom", nil)
	if err == nil {
		_, err = obs.ParseExposition(string(exposition))
	}
	out.checks.verify("exposition_parses", err)
	return sc, nil
}

// recovery is the outcome of recoverPhase.
type recovery struct {
	seconds    []float64
	d          *daemon.Daemon // recovered on the original directory
	durability daemon.DurabilityView
	sample     *storeSample // the abandoned state, for the store probes (traced runs)
}

// recoverPhase abandons the daemon without Shutdown and times a fresh
// one recovering its directory — every record journaled since the last
// periodic snapshot, which the fixed work makes the same log in every
// round of every run. The same state is recovered several times, from
// copies first and from the original last.
func (in *instance) recoverPhase(e *env, out *outcome) (recovery, error) {
	var rcv recovery
	beforeKill, err := mustOK(in.api, http.MethodGet, "/v1/placement", nil)
	if err != nil {
		return rcv, err
	}
	beforeKill = append([]byte(nil), beforeKill...)
	in.d.Stop()
	if e.traced {
		if rcv.sample, err = sampleStore(in.dir); err != nil {
			return rcv, err
		}
	}
	rcv.seconds, err = timeRecoveries(e, in.dir, recoverShare*e.seconds/rounds, func(dir string, last bool) (float64, error) {
		sp := e.rec.begin(0, "recover")
		t0 := time.Now()
		d, _, err := in.w.open(dir, in.tr)
		seconds := time.Since(t0).Seconds()
		e.rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: recovery: %w", in.w.name, err)
		}
		if last {
			rcv.d = d
			return seconds, nil
		}
		return seconds, d.Shutdown()
	})
	if err != nil {
		return rcv, err
	}
	afterKill, err := mustOK(&handlerAPI{h: rcv.d.Handler()}, http.MethodGet, "/v1/placement", nil)
	if err != nil {
		return rcv, err
	}
	if !bytes.Equal(beforeKill, afterKill) {
		out.checks.fail("placement_identical_after_recovery", "GET /v1/placement differs across recovery (%d vs %d bytes)", len(beforeKill), len(afterKill))
	}
	out.checks.pass("placement_identical_after_recovery")
	out.checks.verify("jobs_accounted_after_recovery", checkJobsAccounted(in.fp.jobDeadline, rcv.d.JobResults()))
	rcv.durability = rcv.d.Durability()
	return rcv, nil
}

// timeRecoveries times recover on the state in dir: on copies of dir,
// once at least and then until the timings add up to budget seconds or
// there are fifty — a 10 ms recovery needs more repeats than a 100 ms
// one for a steady median — and last on dir itself, whose recovered
// daemon the caller keeps. Recovery compacts the directory it runs on,
// hence the copies; recover is done with a copy when it returns.
func timeRecoveries(e *env, dir string, budget float64, recover func(dir string, last bool) (seconds float64, err error)) ([]float64, error) {
	var timed []float64
	var total float64
	for last := false; !last; {
		last = len(timed) >= 1 && (total >= budget || len(timed) >= 50)
		target := dir
		if !last {
			cp, err := copyStateDir(dir, e.workDir)
			if err != nil {
				return nil, err
			}
			target = cp
		}
		seconds, err := recover(target, last)
		if !last {
			_ = os.RemoveAll(target)
		}
		if err != nil {
			return nil, err
		}
		timed = append(timed, seconds)
		total += seconds
	}
	return timed, nil
}

// copyStateDir copies a state directory's files into a fresh directory
// under workDir.
func copyStateDir(dir, workDir string) (string, error) {
	cp, err := os.MkdirTemp(workDir, "recover-copy-")
	if err != nil {
		return "", err
	}
	onExit(func() { _ = os.RemoveAll(cp) })
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(cp, ent.Name()), raw, 0o644); err != nil {
			return "", err
		}
	}
	return cp, nil
}

// probeShape sizes the probes' inputs after the workload: its cluster,
// its live job count, and a web demand its cluster can carry.
func (w cycleWorkload) probeShape(place *daemon.PlacementSnapshot) probeShape {
	sh := probeShape{
		nodes: w.nodes, shards: w.shards, webApps: len(place.Web), jobs: len(place.Jobs),
		cycleSeconds: w.cycleSeconds, webRate: (w.rates.lo + w.rates.hi) / 2,
	}
	return sh
}

// fillShardCounters reports the shard coordinator's own counters.
func fillShardCounters(out *outcome, mv daemon.MetricsView) {
	if len(mv.Shards) == 0 {
		return
	}
	var imb []float64
	for _, c := range mv.History {
		imb = append(imb, c.ShardImbalance)
	}
	moves := 0
	for _, s := range mv.Shards {
		moves += s.MovesIn
	}
	out.set("shard.imbalance", median(imb), len(imb), "median over cycles of max−min zone utilization")
	out.set("shard.moves_per_cycle", float64(moves), 1, "rebalancer moves in the last cycle")
}

// fillActions reports the scheduler's lifetime action count per cycle.
func fillActions(out *outcome, mv daemon.MetricsView) {
	total := 0
	for _, n := range mv.Actions {
		total += n
	}
	out.set("scheduler.actions_per_cycle", float64(total)/float64(max(1, int(mv.Cycles))), int(mv.Cycles), "")
}

// fillForecast reports the demand estimator's scorecard when the
// daemon forecasts.
func fillForecast(out *outcome, d *daemon.Daemon, apps []string) {
	var mape, naive []float64
	for _, name := range apps {
		v, err := d.Forecast(name)
		if err != nil {
			return // forecasting is off on this workload
		}
		mape = append(mape, v.Stats.MAPE)
		naive = append(naive, v.Stats.NaiveMAPE)
	}
	out.set("forecast.mape", mean(mape), len(mape), "")
	out.set("forecast.naive_mape", mean(naive), len(naive), "")
}
