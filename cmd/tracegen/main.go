// Command tracegen generates reproducible job traces as JSON, suitable
// for feeding experiments or external tooling. A job trace is a JSON
// array of dynplace.JobSpec, the job shape POST /v1/jobs accepts and the
// daemon journals.
//
// Usage:
//
//	tracegen -workload exp1 -jobs 800 -seed 1 > exp1.json
//	tracegen -workload exp2 -jobs 800 -interarrival 100 > exp2.json
//	tracegen -workload exp3 > exp3.json
//
// The replay workload emits a full mixed-workload replay trace in the
// line-oriented replay format instead of job JSON: web applications
// with staggered diurnal arrival-rate waves, the timestamped load
// events that move them, and batch jobs arriving in bursts in the
// demand valleys (see internal/trace.ParseReplay for the format):
//
//	tracegen -workload replay -apps 3 -seasons 2 -seed 1 > diurnal.trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dynplace"
	"dynplace/internal/batch"
	"dynplace/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "exp1", "workload family: exp1, exp2, exp3")
		jobs         = fs.Int("jobs", 800, "number of jobs (exp1, exp2)")
		interarrival = fs.Float64("interarrival", 260, "mean inter-arrival seconds (exp1, exp2)")
		heavy        = fs.Int("heavy", 200, "heavy-phase jobs (exp3)")
		light        = fs.Int("light", 40, "light-phase jobs (exp3)")
		heavyInter   = fs.Float64("heavy-interarrival", 180, "heavy-phase inter-arrival (exp3)")
		lightInter   = fs.Float64("light-interarrival", 600, "light-phase inter-arrival (exp3)")
		seed         = fs.Int64("seed", 1, "random seed")
		apps         = fs.Int("apps", 3, "web applications (replay)")
		season       = fs.Float64("season", 86400, "diurnal period in seconds (replay)")
		seasons      = fs.Int("seasons", 2, "periods the trace covers (replay)")
		slot         = fs.Float64("slot", 300, "load-sampling interval in seconds (replay)")
		baseRate     = fs.Float64("base-rate", 0, "diurnal valley arrival rate, req/s (replay; 0 = default 40)")
		peakRate     = fs.Float64("peak-rate", 0, "diurnal peak arrival rate, req/s (replay; 0 = default 220)")
		noise        = fs.Float64("noise", 0, "multiplicative load-noise amplitude (replay; 0 = default 0.04)")
		replayJobs   = fs.Int("replay-jobs", 0, "batch jobs in the replay trace (0 = default 40)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "replay" {
		return trace.EncodeReplay(out, trace.GenerateReplay(trace.ReplayOptions{
			Seed:          *seed,
			Apps:          *apps,
			SeasonSeconds: *season,
			Seasons:       *seasons,
			SlotSeconds:   *slot,
			BaseRate:      *baseRate,
			PeakRate:      *peakRate,
			NoiseFrac:     *noise,
			Jobs:          *replayJobs,
		}))
	}
	var specs []*batch.Spec
	switch *workload {
	case "exp1":
		specs = trace.Experiment1Workload(*seed, *jobs, *interarrival)
	case "exp2":
		specs = trace.Experiment2Workload(*seed, *jobs, *interarrival)
	case "exp3":
		specs = trace.Experiment3Workload(*seed, *heavy, *light, *heavyInter, *lightInter)
	default:
		return fmt.Errorf("unknown workload %q (exp1, exp2, exp3, replay)", *workload)
	}
	wire := make([]dynplace.JobSpec, len(specs))
	for i, s := range specs {
		wire[i] = dynplace.JobSpecOf(s)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(wire)
}
