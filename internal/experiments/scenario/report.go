package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies a scenario report; Load, and so `rfipad-bench
// -diff`, rejects any file that does not carry it.
const Schema = "rfipad-bench/scenarios"

// SchemaVersion is bumped whenever the report layout changes
// incompatibly; Load rejects reports from a different major layout.
const SchemaVersion = 1

// Provenance makes a report self-describing: which commit and seed
// produced it, when, on which toolchain.
type Provenance struct {
	Commit    string `json:"commit"`
	Seed      int64  `json:"seed"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
}

// Report is the machine-readable BENCH_scenarios.json payload.
type Report struct {
	Schema        string           `json:"schema"`
	SchemaVersion int              `json:"schema_version"`
	Provenance    Provenance       `json:"provenance"`
	Preset        string           `json:"preset"`
	Word          string           `json:"word"`
	Trials        int              `json:"trials"`
	Cells         []ScenarioResult `json:"cells"`
}

// NewReport wraps results with the schema header.
func NewReport(cfg Config, prov Provenance, cells []ScenarioResult) Report {
	cfg = cfg.withDefaults()
	return Report{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Provenance:    prov,
		Preset:        cfg.Name,
		Word:          cfg.Word,
		Trials:        cfg.Trials,
		Cells:         cells,
	}
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Load reads a report, verifying schema and version.
func Load(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return r, fmt.Errorf("%s: schema %q is not %q", path, r.Schema, Schema)
	}
	if r.SchemaVersion != SchemaVersion {
		return r, fmt.Errorf("%s: schema version %d, this build reads %d",
			path, r.SchemaVersion, SchemaVersion)
	}
	return r, nil
}

// Regression is one gated metric that moved the wrong way between two
// reports (or a cell that disappeared).
type Regression struct {
	Cell  string
	Field string
	Old   float64
	New   float64
}

func (r Regression) String() string {
	if r.Field == "missing" {
		return fmt.Sprintf("%s: cell missing from new report", r.Cell)
	}
	return fmt.Sprintf("%s: %s %.3f -> %.3f", r.Cell, r.Field, r.Old, r.New)
}

// Compare diffs two reports cell-by-cell on the deterministic
// accuracy-class fields. Accuracy, exact rate, and recovery rate may
// drop by at most tol; drop rate may rise by at most tol. Latency and
// telemetry are machine-dependent and never gated. A cell present in
// old but absent in new is a regression (coverage loss); new cells are
// reported in notes only.
func Compare(old, new Report, tol float64) (regressions []Regression, notes []string) {
	newCells := map[string]ScenarioResult{}
	for _, c := range new.Cells {
		newCells[c.Key] = c
	}
	oldKeys := map[string]bool{}
	for _, oc := range old.Cells {
		oldKeys[oc.Key] = true
		nc, ok := newCells[oc.Key]
		if !ok {
			regressions = append(regressions, Regression{Cell: oc.Key, Field: "missing"})
			continue
		}
		down := []struct {
			field    string
			old, new float64
		}{
			{"accuracy", oc.Accuracy, nc.Accuracy},
			{"exact_rate", oc.ExactRate, nc.ExactRate},
			{"recovery_rate", oc.RecoveryRate, nc.RecoveryRate},
		}
		for _, f := range down {
			if f.new < f.old-tol {
				regressions = append(regressions, Regression{
					Cell: oc.Key, Field: f.field, Old: f.old, New: f.new})
			}
		}
		if nc.DropRate > oc.DropRate+tol {
			regressions = append(regressions, Regression{
				Cell: oc.Key, Field: "drop_rate", Old: oc.DropRate, New: nc.DropRate})
		}
	}
	var added []string
	for key := range newCells {
		if !oldKeys[key] {
			added = append(added, key)
		}
	}
	sort.Strings(added)
	for _, key := range added {
		notes = append(notes, fmt.Sprintf("%s: new cell (no baseline)", key))
	}
	sort.Slice(regressions, func(i, j int) bool {
		if regressions[i].Cell != regressions[j].Cell {
			return regressions[i].Cell < regressions[j].Cell
		}
		return regressions[i].Field < regressions[j].Field
	})
	return regressions, notes
}
