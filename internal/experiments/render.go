package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dynplace/internal/metrics"
	"dynplace/internal/trace"
)

// Table1Text renders the worked example's job properties (paper Table 1).
func Table1Text() string {
	tb := metrics.NewTable("property", "J1", "J2 (S1)", "J2 (S2)", "J3")
	tb.AddRow("start time [s]", 0, 1, 1, 2)
	tb.AddRow("max speed [MHz]", 1000, 500, 500, 500)
	tb.AddRow("memory [MB]", 750, 750, 750, 750)
	tb.AddRow("work [Mcycles]", 4000, 2000, 2000, 4000)
	tb.AddRow("min execution time [s]", 4, 4, 4, 8)
	tb.AddRow("relative goal factor", 5, 4, 3, 1)
	tb.AddRow("relative goal [s]", 20, 16, 12, 8)
	tb.AddRow("completion time goal [s]", 20, 17, 13, 10)
	return "Table 1 — worked example job properties\n" + tb.String()
}

// Table2Text renders Experiment One's job properties (paper Table 2).
func Table2Text() string {
	j := trace.Experiment1Job("exp1", 0)
	tb := metrics.NewTable("property", "value")
	tb.AddRow("maximum speed [MHz]", j.Stages[0].MaxSpeedMHz)
	tb.AddRow("memory requirement [MB]", j.Stages[0].MemoryMB)
	tb.AddRow("work [Mcycles]", j.Stages[0].WorkMcycles)
	tb.AddRow("minimum execution time [s]", j.MinExecTime())
	tb.AddRow("relative goal factor", j.GoalFactor())
	tb.AddRow("relative goal [s]", j.RelativeGoal())
	tb.AddRow("max achievable utility", j.UtilityCap(0, 0))
	return "Table 2 — Experiment One job properties\n" + tb.String()
}

// Figure2Text renders Experiment One's two series side by side.
func Figure2Text(res *Experiment1Result, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — hypothetical vs completion relative performance (ceiling %.2f)\n",
		res.UtilityCeiling)
	fmt.Fprintf(&b, "placement changes: %d (paper: none)   on-time rate: %.1f%%\n",
		res.Changes, 100*res.OnTimeRate)
	b.WriteString(seriesText("avg hypothetical utility", res.HypotheticalUtility, points))
	b.WriteString(seriesText("utility at completion", sortedByTime(res.CompletionUtility), points))
	return b.String()
}

// Figure3Table renders the deadline-satisfaction sweep (paper Figure 3).
func Figure3Table(cells []*Experiment2Cell) string {
	return sweepTable("Figure 3 — % of jobs that met the deadline", cells,
		func(c *Experiment2Cell) string { return fmt.Sprintf("%.1f%%", 100*c.OnTimeRate) })
}

// Figure4Table renders the placement-change counts (paper Figure 4).
func Figure4Table(cells []*Experiment2Cell) string {
	return sweepTable("Figure 4 — placement changes (suspend+resume+migrate)", cells,
		func(c *Experiment2Cell) string { return fmt.Sprintf("%d", c.Changes) })
}

// Figure5Table renders the distance-to-goal distributions per goal
// factor for one inter-arrival time (paper Figure 5a/5b).
func Figure5Table(cells []*Experiment2Cell, interarrival float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — distance to goal at completion [s], inter-arrival %.0f s\n", interarrival)
	tb := metrics.NewTable("policy", "factor", "min", "p25", "median", "p75", "max")
	for _, factor := range []string{"1.3", "2.5", "4.0"} {
		for _, c := range cells {
			if c.Interarrival != interarrival {
				continue
			}
			s := metrics.Summarize(c.DistancesByFactor[factor])
			tb.AddRow(c.Policy, factor, s.Min, s.P25, s.Median, s.P75, s.Max)
		}
	}
	b.WriteString(tb.String())
	return b.String()
}

// Figure6Text renders the relative-performance series of one Experiment
// Three configuration.
func Figure6Text(res *Experiment3Result, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — relative performance, %s\n", res.Config)
	b.WriteString(seriesText("TX workload (actual)", res.WebUtility, points))
	b.WriteString(seriesText("LR workload (hypothetical)", res.BatchUtility, points))
	return b.String()
}

// Figure7Text renders the allocation series of one Experiment Three
// configuration.
func Figure7Text(res *Experiment3Result, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — CPU allocation [MHz], %s\n", res.Config)
	b.WriteString(seriesText("TX allocation", res.WebAllocation, points))
	b.WriteString(seriesText("LR allocation", res.BatchAllocation, points))
	return b.String()
}

// sweepTable renders one row per inter-arrival with one column per
// policy, in the paper's descending inter-arrival order.
func sweepTable(title string, cells []*Experiment2Cell, format func(*Experiment2Cell) string) string {
	inters := make([]float64, 0)
	policies := make([]string, 0)
	seenInter := make(map[float64]bool)
	seenPolicy := make(map[string]bool)
	for _, c := range cells {
		if !seenInter[c.Interarrival] {
			seenInter[c.Interarrival] = true
			inters = append(inters, c.Interarrival)
		}
		if !seenPolicy[c.Policy] {
			seenPolicy[c.Policy] = true
			policies = append(policies, c.Policy)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(inters)))
	header := append([]string{"interarrival[s]"}, policies...)
	tb := metrics.NewTable(header...)
	for _, inter := range inters {
		row := make([]any, 0, len(policies)+1)
		row = append(row, inter)
		for _, p := range policies {
			val := "-"
			for _, c := range cells {
				if c.Interarrival == inter && c.Policy == p {
					val = format(c)
					break
				}
			}
			row = append(row, val)
		}
		tb.AddRow(row...)
	}
	return title + "\n" + tb.String()
}

// seriesText renders a downsampled (time, value) series as one row per
// point.
func seriesText(name string, pts []metrics.Point, points int) string {
	s := new(metrics.Series)
	for _, p := range pts {
		s.Add(p.T, p.V)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %s:\n", name)
	for _, p := range s.Downsample(points) {
		fmt.Fprintf(&b, "    t=%8.0f  %12.3f\n", p.T, p.V)
	}
	return b.String()
}

func sortedByTime(pts []metrics.Point) []metrics.Point {
	out := make([]metrics.Point, len(pts))
	copy(out, pts)
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
