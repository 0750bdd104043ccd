// Command mixedsim reproduces the paper's evaluation from the command
// line. Each experiment prints the corresponding tables and figure
// series as text.
//
// Usage:
//
//	mixedsim -experiment example            # Section 4.3 worked example
//	mixedsim -experiment 1                  # Figure 2 + Table 2
//	mixedsim -experiment 2 [-jobs N] [-interarrivals 400,200,50]
//	mixedsim -experiment 3                  # Figures 6 and 7
//	mixedsim -experiment all
//
// Scale flags (-nodes, -jobs) shrink runs for quick inspection; defaults
// match the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dynplace/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mixedsim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("mixedsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "which experiment: example, 1, 2, 3, all")
		nodes      = fs.Int("nodes", 25, "cluster size")
		jobs       = fs.Int("jobs", 800, "jobs per run (experiments 1 and 2)")
		inters     = fs.String("interarrivals", "400,350,300,250,200,150,100,50",
			"experiment 2 inter-arrival sweep (seconds, comma separated)")
		seed   = fs.Int64("seed", 1, "workload seed")
		points = fs.Int("points", 24, "series points printed per figure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	runs := map[string]func() error{
		"example": func() error { return runExample(out) },
		"1":       func() error { return runExperiment1(out, *nodes, *jobs, *seed, *points) },
		"2":       func() error { return runExperiment2(out, *nodes, *jobs, *inters, *seed) },
		"3":       func() error { return runExperiment3(out, *nodes, *seed, *points) },
	}
	switch *experiment {
	case "all":
		for _, name := range []string{"example", "1", "2", "3"} {
			if err := runs[name](); err != nil {
				return err
			}
		}
		return nil
	default:
		fn, ok := runs[*experiment]
		if !ok {
			return fmt.Errorf("unknown experiment %q (example, 1, 2, 3, all)", *experiment)
		}
		return fn()
	}
}

func runExample(out io.Writer) error {
	fmt.Fprintln(out, experiments.Table1Text())
	fmt.Fprintln(out, experiments.WorkedExampleText())
	return nil
}

func runExperiment1(out io.Writer, nodes, jobs int, seed int64, points int) error {
	fmt.Fprintln(out, experiments.Table2Text())
	opts := experiments.DefaultExperiment1Options()
	opts.Nodes = nodes
	opts.Jobs = jobs
	opts.Seed = seed
	fmt.Fprintf(out, "Experiment One: %d nodes, %d jobs, exp(%v s) arrivals, T=%v s\n",
		opts.Nodes, opts.Jobs, experiments.Experiment1Interarrival, opts.CycleSeconds)
	res, err := experiments.RunExperiment1(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.Figure2Text(res, points))
	return nil
}

func runExperiment2(out io.Writer, nodes, jobs int, inters string, seed int64) error {
	opts := experiments.DefaultExperiment2Options()
	opts.Nodes = nodes
	opts.Jobs = jobs
	opts.Seed = seed
	opts.Interarrivals = opts.Interarrivals[:0]
	for _, tok := range strings.Split(inters, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad inter-arrival %q: %w", tok, err)
		}
		opts.Interarrivals = append(opts.Interarrivals, v)
	}
	fmt.Fprintf(out, "Experiment Two: %d nodes, %d jobs per run, sweep %v\n",
		opts.Nodes, opts.Jobs, opts.Interarrivals)
	cells, err := experiments.RunExperiment2(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.Figure3Table(cells))
	fmt.Fprintln(out, experiments.Figure4Table(cells))
	for _, inter := range []float64{200, 50} {
		if containsFloat(opts.Interarrivals, inter) {
			fmt.Fprintln(out, experiments.Figure5Table(cells, inter))
		}
	}
	return nil
}

func runExperiment3(out io.Writer, nodes int, seed int64, points int) error {
	opts := experiments.DefaultExperiment3Options()
	opts.Nodes = nodes
	opts.Seed = seed
	fmt.Fprintf(out, "Experiment Three: %d nodes, %d+%d jobs at exp(%v)/exp(%v) s, horizon %v s\n",
		opts.Nodes, opts.HeavyJobs, opts.LightJobs,
		opts.HeavyInterarrival, opts.LightInterarrival, opts.Horizon)
	for _, config := range []experiments.Experiment3Config{
		experiments.ConfigDynamic,
		experiments.ConfigStatic9,
		experiments.ConfigStatic6,
	} {
		res, err := experiments.RunExperiment3(opts, config)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.Figure6Text(res, points))
		fmt.Fprintln(out, experiments.Figure7Text(res, points))
		fmt.Fprintf(out, "batch on-time rate: %.1f%%\n\n", 100*res.OnTimeRate)
	}
	return nil
}

func containsFloat(xs []float64, v float64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
