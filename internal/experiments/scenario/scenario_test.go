package scenario

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rfipad/internal/replay"
)

func TestMatrixExpansionOrder(t *testing.T) {
	cfg := Config{
		HandSpeeds: []float64{1, 2},
		Faults:     []FaultProfile{NoFault(), FlakyLink()},
		Grids:      []GridDegradation{FullGrid(), Degraded(3, 0.2)},
	}
	cells := cfg.Matrix()
	if len(cells) != 8 {
		t.Fatalf("3-axis 2×2×2 matrix expanded to %d cells", len(cells))
	}
	// Nested order: speed slowest of the populated axes, load fastest.
	want0 := Cell{User: "default", HandSpeed: 1, Fault: "none", Grid: "full"}
	if cells[0] != want0 {
		t.Errorf("cells[0] = %+v, want %+v", cells[0], want0)
	}
	if cells[1].Grid != "dead3-drop20" || cells[1].Fault != "none" {
		t.Errorf("grid must vary before fault: cells[1] = %+v", cells[1])
	}
	if cells[4].HandSpeed != 2 {
		t.Errorf("speed must vary slowest: cells[4] = %+v", cells[4])
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key()] {
			t.Errorf("duplicate cell key %q", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Word != "HI" || c.Trials != 2 || c.Seed != 1 || c.Parallelism != 2 {
		t.Errorf("zero-config defaults wrong: %+v", c)
	}
	if c.CalibDuration != 3*time.Second || c.ReplaySpeed != 40 || c.AccuracyFloor != 0.5 {
		t.Errorf("zero-config defaults wrong: %+v", c)
	}
	if len(c.Users) != 1 || len(c.HandSpeeds) != 1 || len(c.Faults) != 1 ||
		len(c.Grids) != 1 || len(c.EngineLoads) != 1 {
		t.Errorf("axes must collapse to neutral singletons: %+v", c)
	}
	if got := (Config{}).Matrix(); len(got) != 1 {
		t.Errorf("zero config expands to %d cells, want 1", len(got))
	}
}

func TestPresets(t *testing.T) {
	smoke, ok := Preset("smoke")
	if !ok {
		t.Fatal("smoke preset missing")
	}
	// The acceptance criterion: the CI matrix covers at least 3 axes
	// (hand speed × fault profile × grid degradation).
	if len(smoke.HandSpeeds) < 2 || len(smoke.Faults) < 2 || len(smoke.Grids) < 2 {
		t.Errorf("smoke preset must sweep speed, fault, and grid: %+v", smoke)
	}
	if _, ok := Preset("full"); !ok {
		t.Error("full preset missing")
	}
	if _, ok := Preset("nope"); ok {
		t.Error("unknown preset must not resolve")
	}
}

func TestDegradeDeterministicAndBounded(t *testing.T) {
	capture, err := replay.Synthesize(3, "I", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := Degraded(3, 0.25)
	a := degrade(capture, g, rand.New(rand.NewSource(9)))
	b := degrade(capture, g, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(a, b) {
		t.Error("degrade is not deterministic for equal seeds")
	}
	if len(a) >= len(capture) {
		t.Errorf("degradation removed nothing: %d of %d", len(a), len(capture))
	}
	epcs := map[string]bool{}
	for _, r := range capture {
		epcs[string(r.EPC[:])] = true
	}
	kept := map[string]bool{}
	for _, r := range a {
		kept[string(r.EPC[:])] = true
	}
	if len(epcs)-len(kept) != 3 {
		t.Errorf("dead tags silenced: %d, want 3", len(epcs)-len(kept))
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	cell := func(key string, acc, drop float64) ScenarioResult {
		return ScenarioResult{Key: key, Accuracy: acc, ExactRate: acc,
			RecoveryRate: 1, DropRate: drop}
	}
	old := Report{Cells: []ScenarioResult{cell("a", 0.9, 0.1), cell("b", 0.8, 0.1)}}
	same := Report{Cells: []ScenarioResult{cell("a", 0.89, 0.1), cell("b", 0.8, 0.12)}}
	if regs, _ := Compare(old, same, 0.05); len(regs) != 0 {
		t.Errorf("within-tolerance drift flagged: %v", regs)
	}
	worse := Report{Cells: []ScenarioResult{cell("a", 0.7, 0.1), cell("b", 0.8, 0.4)}}
	regs, _ := Compare(old, worse, 0.05)
	fields := map[string]bool{}
	for _, r := range regs {
		fields[r.Cell+"/"+r.Field] = true
	}
	if !fields["a/accuracy"] || !fields["a/exact_rate"] || !fields["b/drop_rate"] {
		t.Errorf("regressions missed: %v", regs)
	}
	missing := Report{Cells: []ScenarioResult{cell("a", 0.9, 0.1)}}
	regs, _ = Compare(old, missing, 0.05)
	if len(regs) != 1 || regs[0].Field != "missing" {
		t.Errorf("missing cell not flagged: %v", regs)
	}
	extra := Report{Cells: append(old.Cells, cell("c", 1, 0))}
	regs, notes := Compare(old, extra, 0.05)
	if len(regs) != 0 || len(notes) != 1 {
		t.Errorf("new cell must be a note, not a regression: %v %v", regs, notes)
	}
}

func TestLetterAccuracy(t *testing.T) {
	cases := []struct {
		want, got string
		acc       float64
	}{
		{"HI", "HI", 1},
		{"HI", "H", 0.5},
		{"HI", "", 0},
		{"HI", "HII", 1 - 1.0/3},
		{"", "", 1},
		{"HELLO", "HELLO", 1},
	}
	for _, c := range cases {
		if got := letterAccuracy(c.want, c.got); got < c.acc-1e-9 || got > c.acc+1e-9 {
			t.Errorf("letterAccuracy(%q, %q) = %v, want %v", c.want, c.got, got, c.acc)
		}
	}
}

// tinyMatrix is the smallest end-to-end matrix that still exercises a
// fault profile and a degraded grid through the real stack.
func tinyMatrix(parallelism int) Config {
	return Config{
		Name:        "test",
		Word:        "I",
		Trials:      1,
		Seed:        5,
		Parallelism: parallelism,
		ReplaySpeed: 80,
		Faults:      []FaultProfile{NoFault(), FlakyLink()},
		Grids:       []GridDegradation{FullGrid(), Degraded(3, 0.15)},
	}
}

func TestRunRealPipelineTinyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario matrix is seconds of wall time")
	}
	dir := t.TempDir()
	cfg := tinyMatrix(4)
	cfg.FlightDir = dir
	// Force at least one anomaly dump: an unreachable accuracy floor
	// marks every trial anomalous.
	cfg.AccuracyFloor = 0.4

	cells, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if len(c.TrialResults) != 1 {
			t.Fatalf("cell %s: %d trials", c.Key, len(c.TrialResults))
		}
		tr := c.TrialResults[0]
		if !tr.Calibrated {
			t.Errorf("cell %s never calibrated (err %q)", c.Key, tr.Err)
		}
		if tr.Accuracy < 1 {
			t.Errorf("cell %s: accuracy %.2f recognizing %q (got %q)",
				c.Key, tr.Accuracy, cfg.Word, tr.Got)
		}
		if len(tr.Obs) == 0 {
			t.Errorf("cell %s: no telemetry snapshot", c.Key)
		}
		if c.RecoveryRate != 1 {
			t.Errorf("cell %s: recovery rate %.2f", c.Key, c.RecoveryRate)
		}
	}
	// The flaky cells must actually have reconnected (the byte budget
	// kills every connection) and recorded injected faults.
	flaky := cells[2]
	if flaky.Fault != "flaky" {
		t.Fatalf("matrix order changed: cells[2] is %s", flaky.Key)
	}
	if flaky.MeanReconnects == 0 {
		t.Error("flaky cell saw no reconnects — faults not applied?")
	}
	if flaky.TrialResults[0].Obs["faultnet_injected_total{kind=drop}"] == 0 {
		t.Error("flaky cell recorded no injected drops")
	}
	// Degraded cells must report the removed readings as drop rate.
	degradedCell := cells[1]
	if degradedCell.Grid == "full" || degradedCell.DropRate == 0 {
		t.Errorf("degraded cell %s has drop rate %.3f", degradedCell.Key, degradedCell.DropRate)
	}
	if degradedCell.MeanDeadTags == 0 {
		t.Errorf("degraded cell %s reports no dead tags", degradedCell.Key)
	}
	// Every trial was forced under the floor's complement — none here,
	// accuracy 1 ≥ 0.4, so no anomalies expected; flight log still
	// exists from OpenFlight.
	if _, err := Load(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("Load must fail on a missing report")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario matrix is seconds of wall time")
	}
	serial, err := Run(tinyMatrix(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(tinyMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Key != p.Key {
			t.Fatalf("cell order differs at %d: %s vs %s", i, s.Key, p.Key)
		}
		// The deterministic fields `-diff` gates: accuracy-class
		// metrics and the capture accounting. Latency and telemetry
		// counters are timing-dependent and deliberately excluded.
		if s.Accuracy != p.Accuracy || s.ExactRate != p.ExactRate {
			t.Errorf("%s: accuracy differs across parallelism: %.3f/%.3f vs %.3f/%.3f",
				s.Key, s.Accuracy, s.ExactRate, p.Accuracy, p.ExactRate)
		}
		for k := range s.TrialResults {
			st, pt := s.TrialResults[k], p.TrialResults[k]
			if st.Seed != pt.Seed {
				t.Errorf("%s trial %d: seed %d vs %d", s.Key, k, st.Seed, pt.Seed)
			}
			if st.ReadingsServed != pt.ReadingsServed || st.ReadingsDegraded != pt.ReadingsDegraded {
				t.Errorf("%s trial %d: served %d/%d vs %d/%d — degradation leaked shared RNG",
					s.Key, k, st.ReadingsServed, st.ReadingsDegraded,
					pt.ReadingsServed, pt.ReadingsDegraded)
			}
			if st.Want != pt.Want || st.Got != pt.Got {
				t.Errorf("%s trial %d: recognized %q vs %q", s.Key, k, st.Got, pt.Got)
			}
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_scenarios.json")
	rep := NewReport(Config{Name: "test"}, Provenance{Commit: "abc", Seed: 5}, []ScenarioResult{
		{Key: "k", Accuracy: 0.75, Trials: 2},
	})
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.SchemaVersion != SchemaVersion {
		t.Errorf("schema header lost: %+v", got)
	}
	if got.Preset != "test" || got.Provenance.Commit != "abc" || len(got.Cells) != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	bad := filepath.Join(dir, "other.json")
	if err := writeOther(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("Load must reject a non-scenario report")
	}
}

func writeOther(path string) error {
	rep := Report{Schema: "other/schema", SchemaVersion: 1}
	return rep.WriteFile(path)
}
