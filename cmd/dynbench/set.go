package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is the file the whole-set mode writes and -compare reads.
type resultSet struct {
	Header  header   `json:"header"`
	Reports []report `json:"reports"`
	// TracingOverheadPct is, per workload, how much lower the traced
	// run's throughput (cycles_per_s, or route_rps for http_mixed) is
	// than the untraced run's.
	TracingOverheadPct map[string]float64 `json:"tracing_overhead_pct,omitempty"`
}

// runSet runs every workload in a process of its own — so peak_rss_mb
// is that workload's and nothing an earlier one left behind — first
// untraced, then, when asked, traced.
func runSet(hdr header, traced bool, outDir, workDir, dynplaced string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if dynplaced == "" {
		if dynplaced, err = buildDynplaced(workDir); err != nil {
			return err
		}
	}
	set := resultSet{Header: hdr}
	failed := false
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, mode := range modes {
		for _, w := range workloads(false) {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(hdr.Seed, 10), "-scenario", strconv.FormatInt(hdr.Scenario, 10),
				"-seconds", strconv.FormatFloat(hdr.Seconds, 'g', -1, 64),
				"-out", outDir, "-workdir", workDir, "-dynplaced", dynplaced,
			}
			if mode {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "dynbench: %s: %v\n", w.name, err)
				failed = true
				continue
			}
			var rep report
			if err := readJSON(filepath.Join(outDir, resultFileName(w.name, mode)), &rep); err != nil {
				return err
			}
			set.Reports = append(set.Reports, rep)
		}
	}
	if traced {
		set.TracingOverheadPct = tracingOverhead(set.Reports)
		fmt.Println("== tracing_overhead_pct (untraced vs traced throughput)")
		for _, w := range workloads(false) {
			if pct, found := set.TracingOverheadPct[w.name]; found {
				fmt.Printf("  %-16s %7.2f %%\n", w.name, pct)
			}
		}
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), set); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// tracingOverhead pairs each workload's untraced and traced runs.
func tracingOverhead(reports []report) map[string]float64 {
	untraced := make(map[string]float64)
	for _, r := range reports {
		if r.Traced {
			continue
		}
		name := "cycles_per_s"
		if r.Workload == "http_mixed" {
			name = "route_rps"
		}
		untraced[r.Workload] = r.Metrics[name].Value
	}
	out := make(map[string]float64)
	for _, r := range reports {
		base := untraced[r.Workload]
		if !r.Traced || base <= 0 {
			continue
		}
		out[r.Workload] = 100 * (base - r.Metrics["trace.throughput"].Value) / base
	}
	return out
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// comparison is one metric of one workload, baseline against candidate.
type comparison struct {
	Workload, Metric string
	Base, Cand       float64
	// Worse is how much worse the candidate is (negative when it is
	// better): a share of the baseline, or with Abs in the metric's unit.
	Worse     float64
	Bound     float64
	Abs       bool
	Regressed bool
	// Why says what is wrong when it is not the size of Worse.
	Why string
}

// compareMetric applies one metric's direction and bound.
func compareMetric(def metricDef, base, cand float64) comparison {
	c := comparison{Metric: def.Name, Base: base, Cand: cand, Bound: def.Bound, Abs: def.Abs}
	c.Worse = cand - base
	if def.Better == "higher" {
		c.Worse = -c.Worse
	}
	if !def.Abs {
		if base == 0 {
			// No share of nothing: any move in the wrong direction counts.
			c.Regressed = c.Worse > 0
			return c
		}
		c.Worse /= math.Abs(base)
	}
	c.Regressed = c.Worse > def.Bound
	return c
}

// compareSets compares the untraced reports of two sets, workload by
// workload, metric by metric. A baseline workload the candidate set
// lacks, a candidate run that was not correct, and a metric the
// candidate did not measure are regressions: a broken run must not
// compare clean.
func compareSets(base, cand resultSet) []comparison {
	candBy := make(map[string]report)
	for _, r := range cand.Reports {
		if !r.Traced {
			candBy[r.Workload] = r
		}
	}
	var out []comparison
	broken := func(workload, metric, why string) {
		out = append(out, comparison{Workload: workload, Metric: metric, Regressed: true, Why: why})
	}
	for _, b := range base.Reports {
		if b.Traced {
			continue
		}
		c, found := candBy[b.Workload]
		if !found {
			broken(b.Workload, "(workload)", "missing from the candidate set")
			continue
		}
		if !c.Correct || c.Failed > 0 {
			why := fmt.Sprintf("the candidate run is not correct: %d of %d operations failed", c.Failed, c.Attempted)
			for _, ch := range c.Checks {
				if !ch.OK {
					why += "; " + ch.Name + ": " + ch.Detail
				}
			}
			broken(b.Workload, "(correct)", why)
		}
		for _, def := range endToEnd {
			cmp := compareMetric(def, b.Metrics[def.Name].Value, c.Metrics[def.Name].Value)
			if cmp.Cand == 0 && cmp.Base != 0 {
				// An end-to-end metric is never 0: the candidate did not measure it.
				cmp.Regressed, cmp.Why = true, "not measured by the candidate"
			}
			cmp.Workload = b.Workload
			out = append(out, cmp)
		}
		for _, def := range outputs {
			bv, reported := b.Outputs[def.Name]
			if !reported {
				continue
			}
			cv, reported := c.Outputs[def.Name]
			if !reported {
				broken(b.Workload, def.Name, "not reported by the candidate")
				continue
			}
			cmp := compareMetric(def, bv.Value, cv.Value)
			cmp.Workload = b.Workload
			out = append(out, cmp)
		}
	}
	return out
}

// compareFiles prints the comparison of two result sets and fails when
// anything regressed past its bound.
func compareFiles(w io.Writer, basePath, candPath string) error {
	var base, cand resultSet
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(candPath, &cand); err != nil {
		return err
	}
	cmps := compareSets(base, cand)
	if len(cmps) == 0 {
		return fmt.Errorf("%s holds no untraced workload", basePath)
	}
	regressed := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s\n", "workload", "metric", "baseline", "candidate", "worse", "bound")
	for _, c := range cmps {
		mark := ""
		if c.Regressed {
			mark = "  REGRESSED"
			regressed++
		}
		switch {
		case c.Why != "" && c.Base == 0 && c.Cand == 0:
			fmt.Fprintf(w, "%-16s %-20s %s%s\n", c.Workload, c.Metric, c.Why, mark)
			continue
		case c.Why != "":
			mark += ": " + c.Why
		}
		if c.Abs {
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+9.4f %8.4g%s\n", c.Workload, c.Metric, c.Base, c.Cand, c.Worse, c.Bound, mark)
		} else {
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.2f%% %7.1f%%%s\n", c.Workload, c.Metric, c.Base, c.Cand, 100*c.Worse, 100*c.Bound, mark)
		}
	}
	hashes := make(map[string]string)
	for _, r := range base.Reports {
		if !r.Traced && r.HistoryHash != "" {
			hashes[r.Workload] = r.HistoryHash
		}
	}
	for _, r := range cand.Reports {
		if h, found := hashes[r.Workload]; found && !r.Traced {
			verdict := "identical"
			if h != r.HistoryHash {
				verdict = "DIFFERS"
			}
			fmt.Fprintf(w, "%-16s history_hash %s\n", r.Workload, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}
