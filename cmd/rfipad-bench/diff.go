package main

import (
	"fmt"

	"rfipad/internal/experiments/scenario"
)

// runDiff gates a scenario report against a baseline: a per-cell table
// of the gated fields, then a verdict. Both inputs must load as
// scenario reports of this schema and version; anything else is an
// error, so the gate cannot pass by default. Latency columns are
// informational — machine noise would make a hard latency threshold
// flaky — while an accuracy, exact-rate, recovery-rate drop or a
// drop-rate rise beyond tolerance fails the diff.
func runDiff(oldPath, newPath string, tol float64) error {
	oldRep, err := scenario.Load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := scenario.Load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("--- %s (%s) -> %s (%s), accuracy tolerance %.3f\n",
		oldPath, oldRep.Provenance.Commit, newPath, newRep.Provenance.Commit, tol)
	newCells := map[string]scenario.ScenarioResult{}
	for _, c := range newRep.Cells {
		newCells[c.Key] = c
	}
	fmt.Printf("%-40s %17s %13s %13s %13s\n",
		"cell", "accuracy", "exact", "recovery", "drop")
	for _, oc := range oldRep.Cells {
		nc, ok := newCells[oc.Key]
		if !ok {
			fmt.Printf("%-40s (missing from new report)\n", oc.Key)
			continue
		}
		fmt.Printf("%-40s %8.3f->%7.3f %6.2f->%5.2f %6.2f->%5.2f %6.3f->%5.3f\n",
			oc.Key, oc.Accuracy, nc.Accuracy, oc.ExactRate, nc.ExactRate,
			oc.RecoveryRate, nc.RecoveryRate, oc.DropRate, nc.DropRate)
	}
	regs, notes := scenario.Compare(oldRep, newRep, tol)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Println("REGRESSION:", r)
		}
		return fmt.Errorf("scenario diff: %d regression(s) beyond tolerance %.3f", len(regs), tol)
	}
	fmt.Println("scenario diff: no accuracy regressions")
	return nil
}
