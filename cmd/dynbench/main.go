// Command dynbench is the repository's benchmark: one command that
// measures the dynplaced daemon end to end and layer by layer on four
// named workloads, checks that what the daemon produced is correct, and
// fails — not warns — when it is not. BENCHMARK.json at the repository
// root is its contract; README.md next to this file explains every
// workload and metric.
//
// One workload, as the driver runs it (the last line of standard output
// is the result as one JSON object):
//
//	bash cmd/dynbench/run.sh --workload flat_750 --seed 1 --seconds 15 --trace 0
//
// The whole set, untraced and then traced, with results and span files
// written under OUT:
//
//	go run ./cmd/dynbench -seed 1 -traced -out OUT
//
// Two result files compared under the benchmark's bounds:
//
//	go run ./cmd/dynbench -compare A.json B.json
//
// flat_750 and sharded_10k on placement problems other than their fixed
// scenario's, to check a solver change on inputs it was not written
// against:
//
//	go run ./cmd/dynbench -workload flat_750 -scenario 7
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// env is one workload run's settings.
type env struct {
	seed      int64
	scenario  int64 // -scenario: overrides the scale workloads' fixed scenario
	seconds   float64
	traced    bool
	workDir   string // scratch space for state directories
	dynplaced string // the built daemon binary, for http_mixed
	rec       *recorder
}

// outcome is what one workload run produced.
type outcome struct {
	metrics     map[string]value
	attempted   int
	failed      int
	checks      *checklist
	historyHash string
	// info carries per-phase counts for the result header.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]value), checks: newChecklist(), info: make(map[string]any)}
}

func (o *outcome) set(name string, v float64, samples int, note string) {
	o.metrics[name] = value{Value: v, Samples: samples, Note: note}
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

// workloads returns the benchmark's four workloads. toy shrinks them
// to sizes a unit test can afford.
func workloads(toy bool) []workload {
	flat := cycleWorkload{
		name: "flat_750", nodes: 750, cycleSeconds: 600, webApps: 2, rates: scaleRates, initialJobs: 40, arrivals: 5,
		cyclesPerSecond: 3.3, warmup: 2, scenario: scaleScenario,
	}
	sharded := cycleWorkload{
		name: "sharded_10k", nodes: 10000, shards: 16, cycleSeconds: 600, webApps: 2, rates: scaleRates, initialJobs: 400, arrivals: 40,
		cyclesPerSecond: 5, warmup: 2, scenario: scaleScenario,
	}
	replay := cycleWorkload{
		name: "replay_diurnal", nodes: 4, cycleSeconds: 30, webApps: 3, rates: replayRates, replay: true, season: 14400,
		cyclesPerSecond: 120, warmup: 480,
	}
	mixed := httpWorkload{nodes: 50, webApps: 2}
	if toy {
		flat.nodes, flat.initialJobs, flat.arrivals, flat.cyclesPerSecond = 40, 8, 2, 10
		sharded.nodes, sharded.shards, sharded.initialJobs, sharded.arrivals = 160, 4, 24, 3
		sharded.cyclesPerSecond = 10
		replay.season, replay.cyclesPerSecond, replay.warmup = 600, 100, 20
		mixed.nodes = 20
	}
	return []workload{
		{flat.name, "flat solver on 750 nodes: core (candidate evaluation, allocator bisection, flow, batch hypothetical) is nearly all of a cycle, so an evaluator change shows here at full strength", flat.run},
		{sharded.name, "16 zones on 10 000 nodes: the sharded solve shares the cycle with extract+explain, a 1 MB journal record and publish; a 1.6 MB placement encode and a 25 MB log set read and recovery time", sharded.run},
		{replay.name, "paper-scale 4-node replay of a seeded diurnal trace with forecasting: a 3 ms cycle, so fsynced load updates and batch dispatch are half the window; also the quality workload", replay.run},
		{"http_mixed", "the built dynplaced over loopback, closed loop: route, batch route, writes beside reads, kill -9 and restart; the only workload that crosses the HTTP stack", mixed.run},
	}
}

// driverResult is the one-line JSON object the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one workload run, as written to -out.
type report struct {
	Workload    string           `json:"workload"`
	Traced      bool             `json:"traced"`
	Header      header           `json:"header"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	HistoryHash string           `json:"history_hash,omitempty"`
	Checks      []check          `json:"checks"`
	Metrics     map[string]value `json:"metrics"`
	// Outputs holds the output metrics (see outputs in metrics.go) the
	// workload reports; traced and untraced runs both carry them.
	Outputs map[string]value `json:"outputs"`
	// Layers holds, in an untraced report, the per-layer metrics that need
	// neither spans nor probes and so are measured without tracing too.
	// They have no bound.
	Layers map[string]value `json:"layers,omitempty"`
	Info   map[string]any   `json:"info"`
}

// header records where and how a result was measured.
type header struct {
	Seed       int64   `json:"seed"`
	Scenario   int64   `json:"scenario,omitempty"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name      = flag.String("workload", "", "run this one workload (default: all four, each in a process of its own)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		scenario  = flag.Int64("scenario", 0, "draw the jobs and arrival rates of flat_750 and sharded_10k from this seed instead of their fixed scenario, to check a change on inputs it was not written against")
		seconds   = flag.Float64("seconds", 15, "length of one workload's measurement window")
		traceFlag = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		traced    = flag.Bool("traced", false, "with the whole set: repeat every workload traced and report the tracing overhead")
		outDir    = flag.String("out", "", "directory for result and span files (default cmd/dynbench/out)")
		workDir   = flag.String("workdir", "", "scratch directory for state dirs and the built daemon (default: the -out directory)")
		dynplaced = flag.String("dynplaced", "", "path of a built dynplaced binary (default: built into the work directory)")
		compare   = flag.Bool("compare", false, "compare two result files, given as arguments, under the bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *outDir == "" {
		*outDir = filepath.Join("cmd", "dynbench", "out")
	}
	if *workDir == "" {
		*workDir = *outDir
	}
	for _, dir := range []string{*outDir, *workDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	hdr := header{
		Seed: *seed, Scenario: *scenario, Seconds: *seconds, Commit: commitID(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}

	if *name == "" {
		return runSet(hdr, *traced, *outDir, *workDir, *dynplaced)
	}

	var w *workload
	for _, cand := range workloads(false) {
		if cand.name == *name {
			w = &cand
			break
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	e := &env{seed: *seed, scenario: *scenario, seconds: *seconds, traced: *traceFlag == 1, workDir: *workDir, dynplaced: *dynplaced}
	if e.traced {
		e.rec = newRecorder(w.name)
	}
	if w.name == "http_mixed" && e.dynplaced == "" {
		bin, err := buildDynplaced(*workDir)
		if err != nil {
			return err
		}
		e.dynplaced = bin
	}

	// A child daemon and state directories must not outlive the harness:
	// on SIGINT/SIGTERM run the registered clean-ups, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	out, err := w.run(e)
	runCleanups()
	if err != nil {
		return err
	}
	rep := buildReport(w.name, e.traced, hdr, out)
	printReport(os.Stdout, rep)
	if err := writeJSON(filepath.Join(*outDir, resultFileName(w.name, e.traced)), rep); err != nil {
		return err
	}
	if e.traced {
		if err := e.rec.writeFile(filepath.Join(*outDir, "trace-"+w.name+".json")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(driverLine(rep))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: output checks failed", w.name)
	}
	return nil
}

func resultFileName(workload string, traced bool) string {
	if traced {
		return "result-" + workload + "-traced.json"
	}
	return "result-" + workload + ".json"
}

// buildReport fills in units from the contract tables and keeps, of the
// metrics a run produced, the kind the run is for: end-to-end metrics
// come only from the untraced run, per-layer metrics from the traced
// one. A per-layer metric the workload does not exercise reads 0.
func buildReport(name string, traced bool, hdr header, out *outcome) report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, def := range defs {
		v := out.metrics[def.Name]
		v.Unit = def.Unit
		metrics[def.Name] = v
	}
	out.set("fail_pct", 100*float64(out.failed)/float64(max(1, out.attempted)), out.attempted, "operations failed or refused of those attempted")
	outs := make(map[string]value, len(outputs))
	for _, def := range outputs {
		if v, reported := out.metrics[def.Name]; reported {
			v.Unit = def.Unit
			outs[def.Name] = v
		}
	}
	var layers map[string]value
	if !traced {
		layers = make(map[string]value)
		for _, def := range perLayer {
			if v, measured := out.metrics[def.Name]; measured {
				v.Unit = def.Unit
				layers[def.Name] = v
			}
		}
	}
	return report{
		Workload: name, Traced: traced, Header: hdr,
		Correct:   out.checks.allOK() && out.failed == 0,
		Attempted: out.attempted, Failed: out.failed,
		HistoryHash: out.historyHash,
		Checks:      out.checks.list(),
		Metrics:     metrics,
		Outputs:     outs,
		Layers:      layers,
		Info:        out.info,
	}
}

func driverLine(rep report) driverResult {
	res := driverResult{
		Correct: rep.Correct, Attempted: max(1, rep.Attempted), Failed: rep.Failed,
		Metrics: make(map[string]driverValue, len(rep.Metrics)),
	}
	for name, v := range rep.Metrics {
		res.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
	}
	return res
}

// printReport writes the human-readable table of one run.
func printReport(w *os.File, rep report) {
	kind := "end-to-end (untraced)"
	defs := endToEnd
	if rep.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g commit=%s %s GOMAXPROCS=%d nproc=%d\n",
		rep.Workload, kind, rep.Header.Seed, rep.Header.Seconds, rep.Header.Commit,
		rep.Header.GoVersion, rep.Header.GOMAXPROCS, rep.Header.NumCPU)
	fmt.Fprintf(w, "  %-32s %14s %-8s %-6s %8s  %s\n", "metric", "value", "unit", "better", "samples", "bound / note")
	for _, def := range defs {
		v := rep.Metrics[def.Name]
		note := v.Note
		if !rep.Traced {
			note = strings.TrimSpace(def.boundText() + " " + v.Note)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s %-6s %8d  %s\n", def.Name, v.Value, def.Unit, def.Better, v.Samples, note)
	}
	for _, def := range outputs {
		if v, reported := rep.Outputs[def.Name]; reported {
			fmt.Fprintf(w, "  %-32s %14.4f %-8s %-6s %8d  %s\n", def.Name, v.Value, def.Unit, def.Better, v.Samples,
				strings.TrimSpace(def.boundText()+" "+v.Note))
		}
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintln(w, "  measured without tracing as well, no bound:")
		for _, def := range perLayer {
			if v, measured := rep.Layers[def.Name]; measured {
				fmt.Fprintf(w, "  %-32s %14.4f %-8s %-6s %8d  %s\n", def.Name, v.Value, def.Unit, def.Better, v.Samples, v.Note)
			}
		}
	}
	if rep.HistoryHash != "" {
		fmt.Fprintf(w, "  history_hash %s\n", rep.HistoryHash)
	}
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%v", k, rep.Info[k])
	}
	fmt.Fprintf(w, "\n  attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-40s %s\n", c.Name, state)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// commitID names the measured commit when the checkout is a git
// repository; the driver's checkouts are not.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// buildDynplaced compiles the daemon into dir and returns its path.
func buildDynplaced(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "dynplaced"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "dynplace/cmd/dynplaced")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dynplaced: %w\n%s", err, out)
	}
	return bin, nil
}
