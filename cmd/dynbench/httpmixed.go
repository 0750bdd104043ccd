package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dynplace"
	"dynplace/internal/daemon"
	"dynplace/internal/obs"
)

// httpWorkload drives the built dynplaced binary over loopback with its
// shipped defaults: a one-second control cycle on a durable state
// directory, closed-loop clients, one connection each, never more
// clients than CPUs — the generator shares the box with the server, and
// an open loop from the same process would measure the Go scheduler.
type httpWorkload struct {
	nodes   int
	webApps int
}

const (
	// Shares of the measurement window per phase.
	phaseAShare = 0.35 // single route
	phaseBShare = 0.15 // batch route
	phaseCShare = 0.50 // writes beside reads
	// phaseSlices slices make up each request phase; the phases' slices
	// take turns and a phase reports its median slice.
	phaseSlices = 5
	// drainShare bounds, as a share of the window, the wait after it for
	// the jobs phase C submitted to finish, so the batch side is scored
	// on finished jobs (a job boots for 3–4 s before it runs).
	drainShare = 0.8
	// routeBatch is the n of the batch-route phase.
	routeBatch = 4096
	// jobEvery paces job submissions inside the write stream. Pacing by
	// time rather than by operation count keeps the live job set — and
	// with it the cost of the daemon's control cycles — independent of
	// how fast the box fsyncs.
	jobEvery = 250 * time.Millisecond
	// maxHTTPJobs keeps the job results inside the daemon's default
	// retention (1024), so every acknowledged job can be found again.
	maxHTTPJobs = 900
	// recoverTailPerSecond × the window's seconds mutations are journaled
	// between the compacting snapshot and the kill -9, so the timed
	// recovery replays the same amount of log on every run: 3 000 records
	// at 15 s, enough that the replay is half of a restart and the
	// jitter of a process start the other.
	recoverTailPerSecond = 200
)

// child is one running dynplaced.
type child struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// spawn starts dynplaced on addr and dir. The process is killed by the
// harness's exit clean-ups should the harness stop early.
func (w httpWorkload) spawn(e *env, addr, dir string) (*child, error) {
	logPath := filepath.Join(e.workDir, fmt.Sprintf("dynplaced-%s.log", filepath.Base(dir)))
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.dynplaced,
		"-listen", addr,
		"-cluster", fmt.Sprintf("%dx%d/%d", w.nodes, nodeCPUMHz, nodeMemMB),
		"-cycle", "1", "-state-dir", dir, "-quiet")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	err = cmd.Start()
	_ = logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", e.dynplaced, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child reports the signal; the harness decides what that means
		close(c.done)
	}()
	onExit(c.kill)
	return c, nil
}

// kill sends SIGKILL and waits for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

// stop asks for a graceful exit and falls back to kill.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// waitHealthy polls /v1/healthz until the daemon reports ok. The poll
// is tight — a refused connection or a reply takes ~0.1 ms — because
// the restart it times takes ~10 ms.
func (c *child) waitHealthy(a api, limit time.Duration) (daemon.HealthView, error) {
	deadline := time.Now().Add(limit)
	for {
		var hv daemon.HealthView
		if err := getJSON(a, "/v1/healthz", &hv); err == nil && hv.Status == "ok" {
			return hv, nil
		}
		select {
		case <-c.done:
			tail, _ := os.ReadFile(c.log)
			return hv, fmt.Errorf("dynplaced exited during start-up:\n%s", tail)
		default:
		}
		if time.Now().After(deadline) {
			return hv, errors.New("dynplaced did not become healthy in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// httpInstance is one set-up daemon.
type httpInstance struct {
	c    *child
	addr string
	dir  string
	apps []string
	fp   *footprints
}

func (in *httpInstance) discard() {
	in.c.kill()
	_ = os.RemoveAll(in.dir)
	_ = os.Remove(in.c.log)
}

// setup goes from nothing to a daemon that has published a placement
// for every registered app: spawn, health ok, apps registered, first
// placement.
func (w httpWorkload) setup(e *env, gen *inputs) (*httpInstance, error) {
	dir, err := os.MkdirTemp(e.workDir, "http_mixed-state-")
	if err != nil {
		return nil, err
	}
	onExit(func() { _ = os.RemoveAll(dir) })
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c, err := w.spawn(e, addr, dir)
	if err != nil {
		return nil, err
	}
	in := &httpInstance{c: c, addr: addr, dir: dir, fp: newFootprints()}
	for j := 1; j <= maxHTTPJobs; j++ {
		in.fp.jobMemMB[httpJobName(j)] = httpJobMemMB
	}
	a := newHTTPAPI(c.base)
	defer a.close()
	if _, err := c.waitHealthy(a, 20*time.Second); err != nil {
		return nil, err
	}
	for i := 0; i < w.webApps; i++ {
		spec := webSpec(i, gen.webRate(httpRates))
		if _, err := mustOK(a, http.MethodPost, "/v1/apps", addAppBody(spec)); err != nil {
			return nil, err
		}
		in.fp.addWeb(spec)
		in.apps = append(in.apps, spec.Name)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var snap daemon.PlacementSnapshot
		if err := getJSON(a, "/v1/placement", &snap); err != nil {
			return nil, err
		}
		placed := 0
		for _, web := range snap.Web {
			if len(web.Instances) > 0 {
				placed++
			}
		}
		if placed == w.webApps {
			return in, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("no placement for every app within 20 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// run executes the workload once: set-ups, the three request phases,
// the daemon's own account of the window, the drain, and kill -9 with
// restart.
func (w httpWorkload) run(e *env) (*outcome, error) {
	out := newOutcome()
	out.checks.pass("requests_succeed")

	var gen *inputs
	in, setupS, err := timeSetups(rounds, rounds, 0, func() (*httpInstance, error) {
		gen = newInputs(e.seed)
		return w.setup(e, gen)
	})
	if err != nil {
		return nil, fmt.Errorf("http_mixed: set-up: %w", err)
	}
	defer func() { in.discard() }()
	ctl := newHTTPAPI(in.c.base)
	defer ctl.close()
	client := func() api { return newHTTPAPI(in.c.base) }
	slice := func(share float64) time.Duration {
		return time.Duration(e.seconds * share / phaseSlices * float64(time.Second))
	}

	var startHealth daemon.HealthView
	if err := getJSON(ctl, "/v1/healthz", &startHealth); err != nil {
		return nil, err
	}
	rss := startRSSSampler(in.c.cmd.Process.Pid)
	// Phase A: single route. Phase B: batch route. Phase C: one client
	// writes back to back while another reads. The phases' slices take
	// turns, so each phase's five are spread over the whole window and
	// its median slice outlasts a slow stretch of the box.
	var sa, sb []routeSlice
	mixed := newMixedPhase(w, e, in, gen, out.checks)
	defer mixed.close()
	batchBody := []byte(fmt.Sprintf(`{"n":%d}`, routeBatch))
	for s := 0; s < phaseSlices; s++ {
		sa = append(sa, runRouteSlice(e, slice(phaseAShare), s, in.apps, nil, nil, client, out.checks))
		sb = append(sb, runRouteSlice(e, slice(phaseBShare), phaseSlices+s, in.apps, batchBody, nil, client, out.checks))
		mixed.slice(slice(phaseCShare))
	}
	pa, pb := summarizeRoute(sa, out.checks), summarizeRoute(sb, out.checks)
	pc, err := mixed.finish()
	if err != nil {
		return nil, err
	}
	rssSamples := rss.finish()

	acct, err := w.serverAccount(e, ctl, startHealth.Cycles, out.checks)
	if err != nil {
		return nil, err
	}

	// Let the jobs phase C submitted finish, so the batch side is scored
	// on finished jobs.
	for begin := time.Now(); time.Since(begin).Seconds() < drainShare*e.seconds; time.Sleep(50 * time.Millisecond) {
		var hv daemon.HealthView
		if err := getJSON(ctl, "/v1/healthz", &hv); err != nil {
			return nil, err
		}
		if hv.LiveJobs == 0 {
			break
		}
	}
	rst, err := w.restartPhase(e, ctl, in, gen, pc, out.checks)
	if err != nil {
		return nil, err
	}

	completed, met := 0, 0
	var utilSum float64
	for _, r := range rst.jobsBefore {
		if !r.Completed {
			continue
		}
		completed++
		utilSum += r.Utility
		if r.MetGoal {
			met++
		}
	}
	ontime := 100.0
	if completed > 0 {
		ontime = 100 * float64(met) / float64(completed)
	}
	if ontime < 90 {
		out.checks.fail("jobs_ontime_floor", "%.1f%% of %d completed jobs met their deadline, below 90%%", ontime, completed)
	}
	out.checks.pass("jobs_ontime_floor")

	out.set("setup_s", median(setupS), len(setupS), "median of set-ups; spawn to first placement of every app")
	out.set("cycles_per_s", acct.cyclesPerS, len(acct.cycleMs), "from the daemon's cycle timestamps")
	out.set("rss_mb", median(rssSamples), len(rssSamples), "median VmRSS of the child, sampled every 50 ms")
	out.set("route_rps", pa.rps, pa.requests, "phase A, median slice")
	out.set("read_p50_ms", median(pc.readP50), len(pc.readMs), "phase C, median slice")
	out.set("recover_s", median(rst.seconds), len(rst.seconds), fmt.Sprintf("median; exec to healthy; snapshot + %d mutations of WAL", int(recoverTailPerSecond*e.seconds)))
	out.set("web_rt_goal_ratio", mean(acct.planned.ratios), len(acct.planned.ratios), "planned, mean over the window's cycles")
	out.set("job_utility_mean", utilSum/float64(max(1, completed)), completed, "")

	out.attempted = pa.attempted + pb.attempted + pc.attempted
	out.failed = pa.failed + pb.failed + pc.failed
	out.info["phaseA"] = counts(pa.attempted, pa.failed)
	out.info["phaseB"] = counts(pb.attempted, pb.failed)
	out.info["phaseC"] = counts(pc.attempted, pc.failed)
	out.info["server_cycles"] = len(acct.cycleMs)
	out.info["server_cycle_mean_ms"] = mean(acct.cycleMs)
	out.info["jobs_submitted"] = len(pc.jobs)
	out.info["jobs_completed"] = completed
	out.info["jobs_ontime_pct"] = ontime
	out.info["planned_web_utility_min"] = acct.planned.utilityMin
	out.info["placement_changes"] = acct.planned.changes

	mutAsc, routeAsc := sorted(pc.mutateMs), sorted(pc.routeUs)
	tailMs, tailPct := tail(acct.cycleMs)
	out.set("http.route_p50_us", pa.p50us, pa.requests, "phase A, median slice")
	out.set("http.route_p99_us", pa.p99us, pa.requests, "phase A, median slice")
	out.set("http.route_batch_p50_us", pb.p50us, pb.requests, "phase B, median slice")
	out.set("http.batch_dispatch_mops", pb.rps*routeBatch/1e6, pb.requests, "")
	out.set("http.scrape_p50_ms", median(pc.scrapeMs), len(pc.scrapeMs), "")
	out.set("http.route_under_write_p99_us", percentile(routeAsc, 99), len(routeAsc), "")
	out.set("http.mutate_rps", float64(len(pc.mutateMs))/(phaseCShare*e.seconds), len(pc.mutateMs), "")
	out.set("http.mutate_ack_p50_ms", median(pc.mutateP50), len(pc.mutateMs), "phase C, median slice")
	out.set("http.mutate_ack_p99_ms", percentile(mutAsc, 99), len(mutAsc), "")
	out.set("daemon.cycle_p50_ms", median(acct.cycleMs), len(acct.cycleMs), "as the daemon timed its own cycles")
	out.set("daemon.cycle_tail_ms", tailMs, len(acct.cycleMs), fmt.Sprintf("p%d", tailPct))
	out.set("daemon.peak_rss_mb", rst.peakRSSMB, 2, "VmHWM of the child, both generations")
	out.set("daemon.recover_ms", median(rst.seconds)*1e3, len(rst.seconds), "")
	out.set("daemon.replayed_records", float64(rst.replayedRecords), 1, "")
	out.set("daemon.placement_bytes", float64(pc.readBytes), 1, "")
	out.set("daemon.placement_encode_ms", median(pc.readP50), len(pc.readMs), "over loopback")
	if !e.traced {
		return out, nil
	}
	out.set("trace.throughput", pa.rps, pa.requests, "route_rps of the traced run")
	spanLayerMetrics(out, e.rec.snapshot())
	return out, w.twinProbes(e, out)
}

// account is the daemon's own record of its control cycles over the
// measurement window.
type account struct {
	cycleMs    []float64
	cyclesPerS float64
	planned    plannedScores
}

// serverAccount reads, once the request phases are over, what the daemon
// recorded about the cycles that began after cycle `after`: their
// durations and timestamps from the span ring, their planned utilities
// from the cycle history. In a traced run the span timelines are
// imported as well.
func (w httpWorkload) serverAccount(e *env, ctl api, after int64, checks *checklist) (account, error) {
	var acct account
	// A window shorter than the control cycle (the smoke test's) may end
	// before any cycle has: wait for one.
	var now daemon.HealthView
	for {
		if err := getJSON(ctl, "/v1/healthz", &now); err != nil {
			return acct, err
		}
		if now.Cycles > after {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var traces struct {
		Cycles []obs.TraceView `json:"cycles"`
	}
	if err := getJSON(ctl, "/v1/debug/cycles", &traces); err != nil {
		return acct, err
	}
	var cycleAt []float64
	for _, tv := range traces.Cycles {
		if tv.Cycle <= after || tv.Cycle > now.Cycles {
			continue
		}
		acct.cycleMs = append(acct.cycleMs, float64(tv.DurationMicros)/1e3)
		cycleAt = append(cycleAt, tv.Time)
		if e.rec != nil {
			root := e.rec.importRoot("cycle", time.Duration(tv.DurationMicros)*time.Microsecond)
			importTrace(e.rec, root, tv)
		}
	}
	n := len(cycleAt)
	if n == 0 {
		return acct, errors.New("http_mixed: the daemon retained no cycle of the measurement window")
	}
	// The rate of the control loop comes from the daemon's cycle
	// timestamps: counting the cycles that happen to fall inside the
	// window would quantize it (13 or 14 cycles in 15 s).
	acct.cyclesPerS = 1 / now.CycleSeconds
	if n > 1 && cycleAt[n-1] > cycleAt[0] {
		acct.cyclesPerS = float64(n-1) / (cycleAt[n-1] - cycleAt[0])
	}

	var mv daemon.MetricsView
	if err := getJSON(ctl, "/v1/metrics", &mv); err != nil {
		return acct, err
	}
	var history []daemon.CycleSnapshot
	for _, c := range mv.History {
		if c.Cycle > after && c.Cycle <= now.Cycles {
			history = append(history, c)
		}
	}
	acct.planned = scoreHistory(history, checks)

	exposition, err := mustOK(ctl, http.MethodGet, "/v1/metrics/prom", nil)
	if err == nil {
		_, err = obs.ParseExposition(string(exposition))
	}
	checks.verify("exposition_parses", err)
	return acct, nil
}

// restart is the outcome of restartPhase.
type restart struct {
	seconds         []float64
	jobsBefore      []dynplace.JobResult // the job results just before the kill
	peakRSSMB       float64
	replayedRecords int
}

// restartPhase is phase D: compact, journal a fixed tail of mutations,
// kill -9, restart on the same directory and time exec → healthy, then
// assert that everything acknowledged is still there. The same killed
// state is restarted several times, on copies first.
func (w httpWorkload) restartPhase(e *env, ctl api, in *httpInstance, gen *inputs, pc *mixedResult, checks *checklist) (restart, error) {
	var rst restart
	if _, err := mustOK(ctl, http.MethodPost, "/v1/state/snapshot", nil); err != nil {
		return rst, err
	}
	tailPhase := &mixedResult{lastJob: pc.lastJob}
	tailLen := int(recoverTailPerSecond * e.seconds)
	for i := 0; i < tailLen; i++ {
		w.mutation(ctl, i, in, gen, pc.jobs, tailPhase, e.rec)
	}
	pc.attempted += tailPhase.attempted
	pc.failed += tailPhase.failed
	if tailPhase.failed > 0 {
		checks.fail("requests_succeed", "%d of %d tail mutations failed", tailPhase.failed, tailPhase.attempted)
	}
	var results struct {
		Jobs []dynplace.JobResult `json:"jobs"`
	}
	if err := getJSON(ctl, "/v1/jobs", &results); err != nil {
		return rst, err
	}
	rst.jobsBefore = results.Jobs
	rst.peakRSSMB = procStatusMB(in.c.cmd.Process.Pid, "VmHWM:")
	in.c.kill()
	_ = os.Remove(in.c.log)

	var after daemon.HealthView
	var err error
	rst.seconds, err = timeRecoveries(e, in.dir, recoverShare*e.seconds, func(dir string, last bool) (float64, error) {
		addr := in.addr
		if !last {
			if addr, err = freeAddr(); err != nil {
				return 0, err
			}
		}
		probe := newHTTPAPI("http://" + addr)
		defer probe.close()
		sp := e.rec.begin(0, "recover")
		t0 := time.Now()
		c, err := w.spawn(e, addr, dir)
		if err != nil {
			return 0, err
		}
		after, err = c.waitHealthy(probe, 30*time.Second)
		seconds := time.Since(t0).Seconds()
		e.rec.end(sp)
		if err != nil || !last {
			c.kill()
			_ = os.Remove(c.log)
		}
		if err != nil {
			return 0, fmt.Errorf("http_mixed: recovery: %w", err)
		}
		if last {
			in.c = c
		}
		return seconds, nil
	})
	if err != nil {
		return rst, err
	}
	if after.Restarts < 1 {
		checks.fail("acknowledged_mutations_survive_kill", "restarted daemon reports %d restarts", after.Restarts)
	}
	checks.verify("acknowledged_mutations_survive_kill", w.checkSurvival(ctl, in.apps, pc.jobs))
	rst.peakRSSMB = math.Max(rst.peakRSSMB, procStatusMB(in.c.cmd.Process.Pid, "VmHWM:"))
	var state daemon.DurabilityView
	if err := getJSON(ctl, "/v1/state", &state); err != nil {
		return rst, err
	}
	rst.replayedRecords = state.ReplayedRecords
	in.c.stop()
	return rst, nil
}

// twinProbes runs the probes. They need a daemon in this process: a
// twin of the same shape on a SimClock.
func (w httpWorkload) twinProbes(e *env, out *outcome) error {
	twin := cycleWorkload{
		name: "http_mixed-twin", nodes: w.nodes, cycleSeconds: 1, webApps: w.webApps,
		initialJobs: w.nodes / 10, arrivals: 1, rates: httpRates, warmup: 2,
	}
	tw, err := twin.setup(e)
	if err != nil {
		return err
	}
	defer tw.discard()
	ss, err := sampleStore(tw.dir)
	if err != nil {
		return err
	}
	rt := timeReps(200*time.Millisecond, 100, 100000, time.Microsecond, func() {
		_, _, _ = tw.api.do(http.MethodPost, "/v1/route/"+tw.apps[0], nil)
	})
	out.set("daemon.handler_route_us", median(rt), len(rt), "the twin's handler, no network")
	lt := timeReps(200*time.Millisecond, 20, 2000, time.Microsecond, func() {
		_, _, _ = tw.api.do(http.MethodPost, "/v1/apps/"+tw.apps[0]+"/load", setLoadBody(httpRates.lo))
	})
	out.set("daemon.handler_load_us", median(lt), len(lt), "the twin's handler, fsync included")
	return runProbes(e, out, twin.probeShape(tw.d.Placement()), tw.d, ss)
}

func counts(attempted, failed int) map[string]int {
	return map[string]int{"sent": attempted, "succeeded": attempted - failed, "failed": failed}
}

// mixedResult collects phase C.
type mixedResult struct {
	mutateMs, readMs, routeUs, scrapeMs []float64
	mutateP50, readP50                  []float64 // per slice
	attempted, failed                   int
	readBytes                           int
	// jobs holds every acknowledged job name; lastJob is when the write
	// stream last submitted one.
	jobs    map[string]float64
	lastJob time.Time
}

// mutation issues the i-th operation of the write stream: a load
// update, or, once jobEvery has passed since the last one, a job
// submission.
func (w httpWorkload) mutation(a api, i int, in *httpInstance, gen *inputs, jobs map[string]float64, res *mixedResult, rec *recorder) {
	var path, name string
	var body []byte
	var job dynplace.JobSpec
	if time.Since(res.lastJob) >= jobEvery && len(jobs) < maxHTTPJobs {
		res.lastJob = time.Now()
		job = gen.httpJob(httpJobName(len(jobs) + 1))
		name, path, body = "submit_job", "/v1/jobs", submitJobBody(job)
	} else {
		name, path, body = "set_load", "/v1/apps/"+in.apps[i%len(in.apps)]+"/load", setLoadBody(gen.webRate(httpRates))
	}
	sp := rec.begin(0, name)
	t0 := time.Now()
	status, _, err := a.do(http.MethodPost, path, body)
	dt := time.Since(t0)
	rec.end(sp)
	res.attempted++
	if err != nil || !ok(status) {
		res.failed++
		return
	}
	res.mutateMs = append(res.mutateMs, dt.Seconds()*1e3)
	if job.Name != "" {
		jobs[job.Name] = 0
	}
}

// mixedPhase is phase C, writes beside reads: client 1 issues mutations
// back to back; client 2 cycles GET /v1/placement, one route, and every
// 50th operation a Prometheus scrape. Each routed node must be an
// instance of the placement read before or after it, and every
// placement read must respect node capacity. The phase runs slice by
// slice; the two clients keep their connections and their place in the
// operation streams from one slice to the next.
type mixedPhase struct {
	w      httpWorkload
	e      *env
	in     *httpInstance
	gen    *inputs
	checks *checklist

	writer, reader *httpAPI
	res, reads     *mixedResult
	ops, reads50   int
	readerErr      string
}

func newMixedPhase(w httpWorkload, e *env, in *httpInstance, gen *inputs, checks *checklist) *mixedPhase {
	checks.pass("routed_node_is_published_instance")
	checks.pass("placement_feasible_within_capacity")
	return &mixedPhase{
		w: w, e: e, in: in, gen: gen, checks: checks,
		writer: newHTTPAPI(in.c.base), reader: newHTTPAPI(in.c.base),
		res: &mixedResult{jobs: make(map[string]float64)}, reads: &mixedResult{},
	}
}

func (p *mixedPhase) close() {
	p.writer.close()
	p.reader.close()
}

// slice runs both clients for d.
func (p *mixedPhase) slice(d time.Duration) {
	e, in, res, reads, reader, checks := p.e, p.in, p.res, p.reads, p.reader, p.checks
	m0, r0 := len(res.mutateMs), len(reads.readMs)
	begin := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Since(begin) < d {
			p.w.mutation(p.writer, p.ops, in, p.gen, res.jobs, res, e.rec)
			p.ops++
		}
	}()
	go func() {
		defer wg.Done()
		var prev map[string]map[string]bool
		for time.Since(begin) < d {
			sp := e.rec.begin(0, "read_placement")
			t0 := time.Now()
			status, resp, err := reader.do(http.MethodGet, "/v1/placement", nil)
			dt := time.Since(t0)
			e.rec.end(sp)
			reads.attempted++
			if err != nil || !ok(status) {
				reads.failed++
				continue
			}
			reads.readMs = append(reads.readMs, dt.Seconds()*1e3)
			reads.readBytes = len(resp)
			var snap daemon.PlacementSnapshot
			if err := json.Unmarshal(resp, &snap); err != nil {
				p.readerErr = "placement reply does not parse: " + err.Error()
				continue
			}
			if err := checkPlacement(&snap, in.fp); err != nil {
				checks.fail("placement_feasible_within_capacity", "%v", err)
			}
			cur := instanceSets(&snap)

			app := in.apps[p.reads50%len(in.apps)]
			sp = e.rec.begin(0, "route")
			t0 = time.Now()
			status, resp, err = reader.do(http.MethodPost, "/v1/route/"+app, nil)
			dt = time.Since(t0)
			e.rec.end(sp)
			reads.attempted++
			if err != nil || !ok(status) {
				reads.failed++
			} else {
				reads.routeUs = append(reads.routeUs, float64(dt.Nanoseconds())/1e3)
				var rr daemon.RouteResponse
				if status == http.StatusOK && json.Unmarshal(resp, &rr) == nil {
					// The table may have been republished between the
					// read and the route: accept the previous read's
					// set too, and re-check against the next read.
					if !cur[app][rr.Node] && !prev[app][rr.Node] {
						var next daemon.PlacementSnapshot
						if getJSON(reader, "/v1/placement", &next) != nil || !instanceSets(&next)[app][rr.Node] {
							checks.fail("routed_node_is_published_instance", "app %s routed to %q, in no placement read around it", app, rr.Node)
						}
					}
				}
			}
			prev = cur
			p.reads50++
			if p.reads50%50 == 0 {
				sp = e.rec.begin(0, "scrape")
				t0 = time.Now()
				status, _, err = reader.do(http.MethodGet, "/v1/metrics/prom", nil)
				dt = time.Since(t0)
				e.rec.end(sp)
				reads.attempted++
				if err != nil || !ok(status) {
					reads.failed++
				} else {
					reads.scrapeMs = append(reads.scrapeMs, dt.Seconds()*1e3)
				}
			}
		}
	}()
	wg.Wait()
	res.mutateP50 = append(res.mutateP50, median(res.mutateMs[m0:]))
	res.readP50 = append(res.readP50, median(reads.readMs[r0:]))
}

// finish merges the two clients' samples.
func (p *mixedPhase) finish() (*mixedResult, error) {
	if p.readerErr != "" {
		return nil, errors.New("http_mixed: " + p.readerErr)
	}
	res, reads := p.res, p.reads
	res.readMs, res.routeUs, res.scrapeMs = reads.readMs, reads.routeUs, reads.scrapeMs
	res.readBytes = reads.readBytes
	res.attempted += reads.attempted
	res.failed += reads.failed
	if res.failed > 0 {
		p.checks.fail("requests_succeed", "%d of %d phase C requests failed", res.failed, res.attempted)
	}
	return res, nil
}

// checkSurvival asserts that every acknowledged app and job is present
// in the restarted daemon.
func (w httpWorkload) checkSurvival(a api, apps []string, jobs map[string]float64) error {
	var listed struct {
		Apps []string `json:"apps"`
	}
	if err := getJSON(a, "/v1/apps", &listed); err != nil {
		return err
	}
	have := make(map[string]bool, len(listed.Apps))
	for _, name := range listed.Apps {
		have[name] = true
	}
	for _, name := range apps {
		if !have[name] {
			return fmt.Errorf("app %q was acknowledged but is gone after the restart", name)
		}
	}
	var results struct {
		Jobs []dynplace.JobResult `json:"jobs"`
	}
	if err := getJSON(a, "/v1/jobs", &results); err != nil {
		return err
	}
	return checkJobsAccounted(jobs, results.Jobs)
}
