package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"dynplace/internal/trace"
)

// testReplayOptions compresses the sweep so ~200 simulated cycles cover
// three seasons: enough for the forecaster to learn a template in
// season one and be scored over the remaining two.
func testReplayOptions() ReplaySweepOptions {
	return ReplaySweepOptions{
		TraceOptions: trace.ReplayOptions{
			Seed:          7,
			Apps:          2,
			SeasonSeconds: 3600,
			Seasons:       3,
			SlotSeconds:   30,
			BaseRate:      40,
			PeakRate:      120,
			Jobs:          10,
		},
		Nodes:        2,
		CycleSeconds: 30,
	}
}

func TestReplaySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep simulates a few hundred control cycles")
	}
	rows, err := RunReplaySweep(testReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode != "reactive" || rows[1].Mode != "forecast" {
		t.Fatalf("rows = %+v, want [reactive forecast]", rows)
	}
	t.Logf("\n%s", ReplaySweepTable(rows))
	reactive, fc := rows[0], rows[1]
	for _, r := range rows {
		if r.Cycles < 90 {
			t.Errorf("%s: %d cycles, want ≥ 90 (three 1800s seasons at T=60)", r.Mode, r.Cycles)
		}
		if r.Requests == 0 {
			t.Errorf("%s: no requests reached the router", r.Mode)
		}
		if r.MeanWebUtility == 0 || r.HistoryHash == "" {
			t.Errorf("%s: row not fully populated: %+v", r.Mode, r)
		}
	}
	if reactive.MAPE != 0 || reactive.NaiveMAPE != 0 {
		t.Errorf("reactive leg reports forecast error %g/%g, want zeros", reactive.MAPE, reactive.NaiveMAPE)
	}
	if fc.MAPE <= 0 || fc.NaiveMAPE <= 0 {
		t.Fatalf("forecast leg scored no predictions: %+v", fc)
	}
	// The tentpole's contract even at compressed scale: after one
	// learned season the estimator beats last-value prediction, and
	// planning against the prediction must not cost web utility.
	if fc.MAPE >= fc.NaiveMAPE {
		t.Errorf("forecaster MAPE %.4f not better than naive %.4f", fc.MAPE, fc.NaiveMAPE)
	}
	if !(fc.MeanWebUtility > reactive.MeanWebUtility || fc.DeadlineMisses < reactive.DeadlineMisses) {
		t.Errorf("forecast leg beats reactive on neither axis: utility %.4f vs %.4f, misses %d vs %d",
			fc.MeanWebUtility, reactive.MeanWebUtility, fc.DeadlineMisses, reactive.DeadlineMisses)
	}
	if fc.MinWebUtility < reactive.MinWebUtility {
		t.Errorf("forecast worst-window utility %.4f below reactive's %.4f",
			fc.MinWebUtility, reactive.MinWebUtility)
	}
}

// TestReplaySweepDeterministic: the replay harness is a simulation —
// same trace, same options, same SimClock schedule must yield
// byte-identical rows, including the SHA-256 over the full cycle
// history. This is what makes the printed replay table diffable across
// CI runs.
func TestReplaySweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep simulates a few hundred control cycles")
	}
	run := func() []byte {
		t.Helper()
		rows, err := RunReplaySweep(testReplayOptions())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("replay not deterministic:\n  run 1: %s\n  run 2: %s", first, second)
	}
}
