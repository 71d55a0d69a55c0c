package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rfipad/internal/experiments/scenario"
)

// TestRunDiffFailsClosed pins the accuracy gate: a report passes only
// against a baseline it does not regress, and anything that is not a
// scenario report of this schema fails instead of slipping through.
func TestRunDiffFailsClosed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep scenario.Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cells := []scenario.ScenarioResult{
		{Key: "clean", Trials: 2, Accuracy: 1, ExactRate: 1, RecoveryRate: 1},
		{Key: "flaky", Trials: 2, Accuracy: 0.75, ExactRate: 0.5, RecoveryRate: 1, DropRate: 0.02},
	}
	base := scenario.NewReport(scenario.Config{Name: "test"}, scenario.Provenance{Commit: "abc", Seed: 1}, cells)
	basePath := write("base.json", base)

	regressed := base
	regressed.Cells = slices.Clone(cells)
	regressed.Cells[0].Accuracy = 0.1

	renamed := base
	renamed.Schema = "rfipad-bench/scenario"

	notReport := filepath.Join(dir, "cells.json")
	if err := os.WriteFile(notReport, []byte(`{"cells": []}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		path    string
		wantErr bool
	}{
		{"same report", basePath, false},
		{"accuracy drop", write("regressed.json", regressed), true},
		{"schema renamed", write("renamed.json", renamed), true},
		{"not a report", notReport, true},
	}
	for _, tc := range cases {
		err := runDiff(basePath, tc.path, 0.1)
		if got := err != nil; got != tc.wantErr {
			t.Errorf("%s: runDiff error = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
