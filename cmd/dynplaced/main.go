// Command dynplaced runs the application placement controller as a live
// daemon: the control loop re-evaluates web and batch placement every
// cycle against the current workload registry and node inventory, swaps
// the placement in atomically, and republishes request-dispatch weights.
// Workloads are added, observed and removed over a JSON HTTP API without
// restarts, and so are nodes: machines join (POST /v1/nodes), drain
// gracefully (POST /v1/nodes/{name}/drain), fail abruptly
// (POST /v1/nodes/{name}/fail — jobs are rescued with progress intact)
// and leave (DELETE /v1/nodes/{name}) while the daemon runs. The
// -cluster flag only seeds the initial inventory. Every route lives
// under /v1 (a bare path is a plain 404); errors carry the
// {"error": {"code", "message"}} envelope (see docs/API.md). Request
// dispatch (POST /v1/route/{name}) goes
// through a lock-free router dataplane and accepts a {"n": N} body to
// route a batch in one call.
//
// With -state-dir the daemon is durable: every mutating API call and
// every applied cycle is journaled to an fsync'd write-ahead log,
// compacted into snapshots every -snapshot-every cycles, and replayed
// on the next boot — apps, batch jobs (accumulated progress intact) and
// the node inventory survive kill -9. Jobs that were running when the
// process died are rescued onto the recovered placement. SIGTERM exits
// gracefully: the cycle loop drains, a final snapshot is written, and
// the process exits 0. GET /v1/state reports durability status; POST
// /v1/state/snapshot compacts on demand.
//
// With -forecast the control loop plans each cycle against predicted
// next-cycle demand instead of the last observed arrival rate: an
// online per-app estimator (trend-aware smoothing plus a seasonal
// template of -forecast-season seconds in -forecast-slots buckets)
// learns from every load report and is scored against the naive
// last-value predictor. GET /v1/apps/{name}/forecast reports the
// prediction and the scorecard; dynplace_forecast_* gauges expose it
// to Prometheus (see docs/OPERATIONS.md for the fallback runbook).
//
// /v1/healthz reports the control loop's real state: "recovering" while
// a boot-time replay is rebuilding state (mutating endpoints answer 503
// until it completes), "ok", "degraded" while placement is infeasible
// (e.g. after losing too many nodes), or "failing" when cycles error,
// with the last error attached.
//
// Observability: GET /v1/metrics/prom serves the Prometheus text
// exposition (cycle/span/zone latency histograms, router and WAL
// timings, lifetime counters; gzip-encoded when the scraper sends
// Accept-Encoding: gzip), GET /v1/debug/cycles/{n} the span timeline
// of a recent control cycle. Every cycle's decision provenance — who
// was placed, moved, evicted or denied, and which constraint bound —
// is kept in a bounded flight recorder: GET /v1/explain serves the
// last cycle, GET /v1/explain/apps/{name} one application's history
// (-explain-history sizes the window), and GET /v1/debug/bundle
// streams a self-diagnosing tar.gz (explanations, cycle traces,
// metrics, config, state, and the auto-captured CPU profile of the
// most recent slow cycle). Logs are structured (log/slog); choose
// the encoding with -log-format=text|json. Cycles slower than
// -slow-cycle seconds log a warning and arm the profile auto-capture;
// a -slow-cycle at or past -cycle is rejected at startup. -pprof-addr
// serves net/http/pprof on a separate, opt-in listener so profiling is
// never exposed on the API address. -version prints the build version
// and exits.
//
// Example:
//
//	dynplaced -listen :8080 -cluster 4x3000/4096 -cycle 30
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/apps -d '{"app":{"name":"shop",
//	  "arrivalRate":20,"demandPerRequest":50,"goalResponseTime":0.25,
//	  "memoryMB":1200}}'
//	curl -s -X POST localhost:8080/v1/jobs -d '{"relative":true,"job":{
//	  "name":"nightly","workMcycles":3.9e6,"maxSpeedMHz":3000,
//	  "memoryMB":2000,"deadline":14400}}'
//	curl -s -X POST localhost:8080/v1/nodes -d '{"name":"spare-1",
//	  "cpuMHz":3000,"memMB":4096}'
//	curl -s -X POST localhost:8080/v1/nodes/node-2/drain
//	curl -s localhost:8080/v1/placement
//	curl -s localhost:8080/v1/metrics/prom
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/daemon"
	"dynplace/internal/forecast"
	"dynplace/internal/store"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		spec      = flag.String("cluster", "4x3000/4096", "cluster inventory: comma-separated COUNTxCPU_MHZ/MEM_MB groups")
		cycle     = flag.Float64("cycle", 30, "control cycle length in seconds")
		queueCap  = flag.Int("queue", 128, "per-app overload-protection queue capacity (0 rejects immediately)")
		history   = flag.Int("history", 512, "per-cycle snapshots retained for /v1/metrics")
		epsilon   = flag.Float64("epsilon", 0, "optimizer comparison resolution (0 = default)")
		passes    = flag.Int("passes", 0, "optimizer improvement passes per cycle (0 = default)")
		par       = flag.Int("parallelism", 0, "optimizer candidate-evaluation workers (1 = sequential, 0 = all CPUs)")
		shards    = flag.Int("shards", 0, "placement zones solved concurrently (0 = one flat problem; 1 = coordinator with a single zone)")
		shardSeed = flag.Int64("shard-seed", 0, "deterministic shard-rebalancing seed")
		freeCosts = flag.Bool("free-costs", false, "disable placement-action costs (default: the paper's measured constants)")
		quiet     = flag.Bool("quiet", false, "suppress per-cycle log lines")
		stateDir  = flag.String("state-dir", "", "durable state directory (WAL + snapshots); empty runs memory-only")
		snapEvery = flag.Int("snapshot-every", 64, "cycles between compacting snapshots (negative disables periodic compaction)")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		slowCycle = flag.Float64("slow-cycle", 0, "warn when a control cycle takes longer than this many seconds (0 = 80% of -cycle, negative disables)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
		traceN    = flag.Int("trace-cycles", 64, "cycle span timelines retained for /v1/debug/cycles")
		explainN  = flag.Int("explain-history", 128, "cycle decision explanations retained for /v1/explain")
		version   = flag.Bool("version", false, "print the build version and exit")
		fcOn      = flag.Bool("forecast", false, "plan each cycle against predicted next-cycle demand instead of the last observation")
		fcSeason  = flag.Float64("forecast-season", 86400, "seasonal period of the demand estimator in seconds")
		fcSlots   = flag.Int("forecast-slots", 48, "seasonal template buckets per season")
	)
	flag.Parse()

	if *version {
		fmt.Printf("dynplaced %s %s\n", daemon.BuildVersion(), runtime.Version())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "dynplaced: -log-format: %q is not text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	cl, err := cluster.Parse(*spec)
	if err != nil {
		fatal("bad -cluster", err)
	}
	costs := cluster.DefaultCostModel()
	if *freeCosts {
		costs = cluster.FreeCostModel()
	}
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	qc := *queueCap
	if qc == 0 {
		qc = -1 // daemon.Config: negative disables queuing
	}
	var st *store.Store
	if *stateDir != "" {
		st, err = store.Open(*stateDir)
		if err != nil {
			fatal("bad -state-dir", err)
		}
	}
	var fcCfg *forecast.Config
	if *fcOn {
		fcCfg = &forecast.Config{SeasonSeconds: *fcSeason, Slots: *fcSlots}
	}
	d, err := daemon.New(daemon.Config{
		Cluster:      cl,
		CycleSeconds: *cycle,
		Costs:        costs,
		Dynamic: control.DynamicConfig{
			Epsilon:     *epsilon,
			MaxPasses:   *passes,
			Parallelism: *par,
			Shards:      *shards,
			ShardSeed:   *shardSeed,
			Forecast:    fcCfg,
		},
		QueueCap: qc,
		History:  *history,
		Logf:     logf,
		// Warnings (slow cycles, degraded states) always log, -quiet or
		// not: they are the lines operators alert on.
		Warnf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
		SlowCycleWarn:  *slowCycle,
		TraceCycles:    *traceN,
		ExplainHistory: *explainN,
		Store:          st,
		SnapshotEvery:  *snapEvery,
	})
	if err != nil {
		fatal("bad configuration", err)
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: nothing profiling-
		// related is ever reachable through the API address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.ListenAndServe(); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Serve before recovering so /v1/healthz can answer "recovering" while
	// the replay rebuilds state — load balancers keep traffic away
	// instead of timing out. The daemon refuses mutating requests with
	// 503 until Recover completes, so a request routed early cannot be
	// acknowledged and then wiped by the replay.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if st != nil {
		logger.Info("durable state enabled", "dir", *stateDir, "snapshotEvery", *snapEvery)
		if err := d.Recover(); err != nil {
			fatal("recover", err)
		}
	}
	if err := d.Start(); err != nil {
		fatal("start", err)
	}
	defer d.Stop()
	mode := "flat"
	if *shards >= 1 {
		mode = fmt.Sprintf("%d zones", *shards)
	}
	logger.Info("managing cluster",
		"nodes", cl.Len(), "cpuMHz", cl.TotalCPU(), "memMB", cl.TotalMem(),
		"listen", *listen, "cycleSeconds", *cycle, "mode", mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve", err)
		}
	case s := <-sig:
		// Graceful shutdown: stop accepting requests, drain the cycle
		// loop, flush the store with a final snapshot, and exit 0.
		fmt.Fprintln(os.Stderr)
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if err := d.Shutdown(); err != nil {
			fatal("final snapshot", err)
		}
		if st != nil {
			logger.Info("state flushed", "dir", *stateDir)
		}
	}
}
