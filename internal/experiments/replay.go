package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/daemon"
	"dynplace/internal/forecast"
	"dynplace/internal/trace"
	"dynplace/internal/txn"
)

// ReplaySweepOptions parameterizes the trace-replay sweep: the same
// Alibaba-style diurnal web + bursty batch trace is replayed through two
// full dynplaced daemons — one purely reactive, one forecast-driven —
// and the sweep measures what prediction buys. Every cycle, each leg's
// plan is scored against the arrival rate the trace *actually* delivers
// over the following control window, so a controller that allocates for
// stale demand pays for it in realized web utility. Load changes reach
// the controller only at cycle boundaries (the rate moves first, the
// controller notices a cycle later), which is exactly the measurement
// lag the paper's placement loop lives with.
type ReplaySweepOptions struct {
	// Trace is the workload to replay. When nil, one is generated from
	// TraceOptions.
	Trace *trace.ReplayTrace
	// TraceOptions feeds trace.GenerateReplay when Trace is nil.
	TraceOptions trace.ReplayOptions
	// Nodes is the cluster size (default 4; paper-spec nodes of
	// 15.6 GHz / 16 GB).
	Nodes int
	// NodeCPUMHz and NodeMemMB shape each node (defaults 15600, 16384).
	NodeCPUMHz, NodeMemMB float64
	// CycleSeconds is the control cycle T (default 30).
	CycleSeconds float64
	// WarmupSeconds excludes the template-less first stretch from
	// scoring — both legs alike, so the comparison stays fair (default
	// one trace season).
	WarmupSeconds float64
	// Forecast overrides the forecast leg's estimator configuration
	// (default: the trace's season with 48 template slots).
	Forecast *forecast.Config
}

// DefaultReplaySweepOptions returns the benchmark's standard settings:
// three web applications with staggered 4-hour diurnal waves over four
// seasons, load sampled every cycle, and batch bursts in the demand
// valleys. Peak aggregate web demand is ~80% of cluster CPU so the
// solver always has a feasible problem but batch keeps competing for
// the slack.
func DefaultReplaySweepOptions() ReplaySweepOptions {
	return ReplaySweepOptions{
		TraceOptions: trace.ReplayOptions{
			Seed:          1,
			Apps:          3,
			SeasonSeconds: 14400,
			Seasons:       4,
			SlotSeconds:   30,
			BaseRate:      40,
			PeakRate:      160,
		},
		Nodes:        4,
		NodeCPUMHz:   15600,
		NodeMemMB:    16384,
		CycleSeconds: 30,
	}
}

// ReplaySweepRow is one control mode's measurement over the full trace.
type ReplaySweepRow struct {
	// Mode is "reactive" or "forecast".
	Mode string `json:"mode"`
	// Apps, Jobs, Nodes and Cycles give the scenario shape.
	Apps, Jobs, Nodes int `json:"-"`
	Cycles            int `json:"cycles"`
	// Requests is the total user-request volume pushed through the
	// router's batch dispatch path.
	Requests int64 `json:"requests"`
	// MeanWebUtility and MinWebUtility score each cycle's plan against
	// the arrival rate the trace realized over the window the plan
	// governed (post-warm-up windows only).
	MeanWebUtility float64 `json:"meanWebUtility"`
	MinWebUtility  float64 `json:"minWebUtility"`
	// DeadlineMisses counts jobs that blew their completion-time goal
	// (completed late, or never completed — every trace deadline falls
	// inside the replay horizon); LostJobs is the never-completed
	// subset.
	DeadlineMisses int `json:"deadlineMisses"`
	LostJobs       int `json:"lostJobs"`
	// Changes is the total placement churn across all cycles.
	Changes int `json:"changes"`
	// MAPE and NaiveMAPE score the forecaster's next-cycle predictions
	// versus the last-value predictor over the post-warm-up windows
	// (zero on the reactive row, which makes no predictions).
	MAPE      float64 `json:"mape"`
	NaiveMAPE float64 `json:"naiveMape"`
	// HistoryHash is a SHA-256 over the daemon's full cycle history —
	// the determinism witness: same trace, same options ⇒ same hash.
	HistoryHash string `json:"historyHash"`
	// Elapsed is the wall-clock cost of the simulated run. Excluded
	// from the JSON artifact so replay output is byte-reproducible.
	Elapsed time.Duration `json:"-"`
}

func (o ReplaySweepOptions) withDefaults() ReplaySweepOptions {
	def := DefaultReplaySweepOptions()
	if o.Nodes <= 0 {
		o.Nodes = def.Nodes
	}
	if o.NodeCPUMHz <= 0 {
		o.NodeCPUMHz = def.NodeCPUMHz
	}
	if o.NodeMemMB <= 0 {
		o.NodeMemMB = def.NodeMemMB
	}
	if o.CycleSeconds <= 0 {
		o.CycleSeconds = def.CycleSeconds
	}
	return o
}

// RunReplaySweep replays the trace through a reactive and a
// forecast-driven daemon and returns one row per mode, reactive first.
func RunReplaySweep(opts ReplaySweepOptions) ([]ReplaySweepRow, error) {
	opts = opts.withDefaults()
	tr := opts.Trace
	if tr == nil {
		tr = trace.GenerateReplay(opts.TraceOptions)
	}
	if len(tr.Apps) == 0 {
		return nil, fmt.Errorf("replay sweep: trace has no web applications")
	}
	if opts.WarmupSeconds <= 0 {
		opts.WarmupSeconds = tr.SeasonSeconds
	}
	fcCfg := opts.Forecast
	if fcCfg == nil {
		// Taus scale with the control cycle, not the season: the
		// estimator must track a ramp within a few cycles or the solver
		// allocates below the stability floor of the demand that
		// actually arrives. A gentler seasonal gain keeps the template
		// from absorbing the level's transient tracking error.
		fcCfg = &forecast.Config{
			SeasonSeconds:   tr.SeasonSeconds,
			Slots:           48,
			LevelTauSeconds: 2 * opts.CycleSeconds,
			TrendTauSeconds: 2 * opts.CycleSeconds,
			SeasonalGamma:   0.2,
		}
	}
	rows := make([]ReplaySweepRow, 0, 2)
	for _, leg := range []struct {
		mode string
		fc   *forecast.Config
	}{
		{"reactive", nil},
		{"forecast", fcCfg},
	} {
		row, err := runReplayLeg(opts, tr, leg.mode, leg.fc)
		if err != nil {
			return nil, fmt.Errorf("replay sweep (%s): %w", leg.mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// replayHorizon bounds the run: the last load event and the last job
// deadline both land inside it, rounded up to whole cycles.
func replayHorizon(tr *trace.ReplayTrace, cycle float64) (horizon float64, cycles int) {
	end := cycle
	for _, ev := range tr.Loads {
		if ev.Time > end {
			end = ev.Time
		}
	}
	for _, j := range tr.Jobs {
		if j.Deadline > end {
			end = j.Deadline
		}
	}
	cycles = int(math.Ceil(end/cycle - 1e-9))
	return float64(cycles) * cycle, cycles
}

func runReplayLeg(opts ReplaySweepOptions, tr *trace.ReplayTrace, mode string, fcCfg *forecast.Config) (ReplaySweepRow, error) {
	begin := time.Now()
	T := opts.CycleSeconds
	horizon, cycles := replayHorizon(tr, T)
	if opts.WarmupSeconds >= horizon {
		return ReplaySweepRow{}, fmt.Errorf("warm-up %gs swallows the whole %gs trace", opts.WarmupSeconds, horizon)
	}

	cl, err := cluster.Uniform(opts.Nodes, opts.NodeCPUMHz, opts.NodeMemMB)
	if err != nil {
		return ReplaySweepRow{}, err
	}
	clock := daemon.NewSimClock()
	cfg := daemon.Config{
		Cluster:      cl,
		CycleSeconds: T,
		Costs:        cluster.DefaultCostModel(),
		Clock:        clock,
		History:      cycles + 8,
	}
	if fcCfg != nil {
		cfg.Dynamic.Forecast = fcCfg
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return ReplaySweepRow{}, err
	}
	defer d.Stop()

	templates := make(map[string]*txn.App, len(tr.Apps))
	rates := make(map[string]float64, len(tr.Apps))
	names := make([]string, 0, len(tr.Apps))
	for _, a := range tr.Apps {
		if err := d.AddWebApp(dynplace.WebAppSpecOf(a), false); err != nil {
			return ReplaySweepRow{}, err
		}
		templates[a.Name] = a
		rates[a.Name] = a.ArrivalRate
		names = append(names, a.Name)
	}
	sort.Strings(names)
	deadlines := make(map[string]float64, len(tr.Jobs))
	for _, j := range tr.Jobs {
		if err := d.SubmitJob(dynplace.JobSpecOf(j), false); err != nil {
			return ReplaySweepRow{}, err
		}
		deadlines[j.Name] = j.Deadline
	}
	if err := d.Start(); err != nil { // cycle 1 fires at t = 0
		return ReplaySweepRow{}, err
	}

	row := ReplaySweepRow{
		Mode: mode, Apps: len(tr.Apps), Jobs: len(tr.Jobs),
		Nodes: opts.Nodes, Cycles: cycles, MinWebUtility: math.Inf(1),
	}
	// Load reports reach the daemon a beat after the rate actually
	// moves. The delay keeps a report from landing on the exact instant
	// the control cycle just observed: a zero-width interval reads as a
	// correction of the current sample, and a step the estimator only
	// ever sees at dt=0 teaches it nothing.
	sensorDelay := math.Min(1, T/4)
	var utilSum float64
	var utilCount int
	// Interval MAPE is reconstructed from the estimator's cumulative
	// counters at the warm-up crossing and at the end: the Stats MAPE is
	// sumAPE/scored, so the post-warm-up mean is a delta of products.
	type mapeBase struct {
		sumAPE, sumNaive float64
		scored           int64
	}
	var base map[string]mapeBase

	next := 0 // index into tr.Loads, sorted by (Time, App)
	for k := 1; k <= cycles; k++ {
		wStart := float64(k-1) * T
		wEnd := float64(k) * T
		scored := wStart >= opts.WarmupSeconds-1e-9

		if fcCfg != nil && scored && base == nil {
			base = make(map[string]mapeBase, len(names))
			for _, name := range names {
				view, err := d.Forecast(name)
				if err != nil {
					return row, err
				}
				s := view.Stats
				base[name] = mapeBase{
					sumAPE:   s.MAPE * float64(s.Scored),
					sumNaive: s.NaiveMAPE * float64(s.Scored),
					scored:   s.Scored,
				}
			}
		}

		// The plan governing this window fired at wStart, before any of
		// the window's load events were visible: the controller reacts
		// one cycle behind the workload, as a real daemon measuring the
		// previous window's traffic would.
		snap := d.Placement()
		allocs := make(map[string]float64, len(snap.Web))
		for _, w := range snap.Web {
			allocs[w.Name] = w.AllocMHz
		}

		// Apply this window's load events at their trace instants,
		// time-integrating each app's rate as we go.
		integral := make(map[string]float64, len(names))
		segStart := wStart
		for next < len(tr.Loads) && tr.Loads[next].Time < wEnd {
			ev := tr.Loads[next]
			next++
			if ev.Time > segStart {
				for name, r := range rates {
					integral[name] += r * (ev.Time - segStart)
				}
				segStart = ev.Time
			}
			if _, ok := templates[ev.App]; !ok {
				continue
			}
			obsT := math.Min(ev.Time+sensorDelay, wEnd-1e-9)
			if obsT > clock.Now() {
				clock.Advance(obsT - clock.Now())
			}
			if err := d.SetArrivalRate(ev.App, ev.Rate); err != nil {
				return row, err
			}
			rates[ev.App] = ev.Rate
		}
		for name, r := range rates {
			integral[name] += r * (wEnd - segStart)
		}

		// Score the plan against the rate the trace delivered, and push
		// the window's request volume through the router dataplane.
		for _, name := range names {
			mean := integral[name] / T
			if scored {
				app := *templates[name]
				app.ArrivalRate = mean
				u := app.Utility(allocs[name])
				// An allocation below the realized stability floor
				// reads as the model's unbounded-violation sentinel;
				// clamp at -1 ("SLA fully blown") so one such window
				// cannot dominate the mean.
				if u < -1 {
					u = -1
				}
				utilSum += u
				utilCount++
				if u < row.MinWebUtility {
					row.MinWebUtility = u
				}
			}
			res, err := d.Router().DispatchBatch(name, int(math.Round(mean*T)))
			if err != nil {
				return row, err
			}
			row.Requests += int64(res.Dispatched + res.Queued + res.Rejected)
		}

		if wEnd > clock.Now() {
			clock.Advance(wEnd - clock.Now()) // fires cycle k+1
		}
	}

	if utilCount > 0 {
		row.MeanWebUtility = utilSum / float64(utilCount)
	}
	if row.MinWebUtility == math.Inf(1) {
		row.MinWebUtility = 0
	}
	if fcCfg != nil && base != nil {
		var sumAPE, sumNaive float64
		var scored int64
		for _, name := range names {
			view, err := d.Forecast(name)
			if err != nil {
				return row, err
			}
			s, b := view.Stats, base[name]
			sumAPE += s.MAPE*float64(s.Scored) - b.sumAPE
			sumNaive += s.NaiveMAPE*float64(s.Scored) - b.sumNaive
			scored += s.Scored - b.scored
		}
		if scored > 0 {
			row.MAPE = sumAPE / float64(scored)
			row.NaiveMAPE = sumNaive / float64(scored)
		}
	}
	for _, res := range d.JobResults() {
		switch {
		case !res.Completed:
			row.LostJobs++
			if deadlines[res.Name] <= horizon {
				row.DeadlineMisses++
			}
		case !res.MetGoal:
			row.DeadlineMisses++
		}
	}
	history := d.Metrics().History
	for _, c := range history {
		row.Changes += c.Changes
	}
	raw, err := json.Marshal(history)
	if err != nil {
		return row, err
	}
	sum := sha256.Sum256(raw)
	row.HistoryHash = hex.EncodeToString(sum[:])
	row.Elapsed = time.Since(begin)
	return row, nil
}

// ReplaySweepTable formats the sweep for the benchmark log and the CI
// artifact.
func ReplaySweepTable(rows []ReplaySweepRow) string {
	var b strings.Builder
	b.WriteString("Replay sweep — diurnal trace through reactive vs forecast-driven control\n")
	b.WriteString("  mode      cycles  requests   web-mean  web-min  misses  lost  changes    mape  naive-mape\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s  %6d  %8d  %8.4f  %7.4f  %6d  %4d  %7d  %6.4f  %10.4f\n",
			r.Mode, r.Cycles, r.Requests, r.MeanWebUtility, r.MinWebUtility,
			r.DeadlineMisses, r.LostJobs, r.Changes, r.MAPE, r.NaiveMAPE)
	}
	return b.String()
}
