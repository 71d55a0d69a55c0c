// Command rfipad-bench regenerates every table and figure of the
// paper's evaluation (§V) plus the DESIGN.md ablations, and runs the
// scenario matrix with its accuracy gate.
//
// Usage:
//
//	rfipad-bench -list
//	rfipad-bench                 # quick pass over every experiment
//	rfipad-bench -full           # paper-scale sample sizes (slow)
//	rfipad-bench -run table1     # one experiment
//	rfipad-bench -scenarios      # scenario matrix, smoke preset (BENCH_scenarios.json)
//	rfipad-bench -scenarios-full # scenario matrix, every axis populated
//	rfipad-bench -scenarios -scenario-preset full
//	rfipad-bench -diff OLD.json NEW.json   # gated cell-by-cell diff of two scenario reports
//	rfipad-bench -diff OLD.json NEW.json -diff-accuracy-tol 0.02
//	rfipad-bench -trials 10 -groups 3 -seed 7
//
// Performance benchmarks live in the bench/ module (bench/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfipad/internal/experiments"
	"rfipad/internal/experiments/scenario"
)

func main() {
	os.Exit(run())
}

// usageError prints a flag-validation failure plus usage and returns
// exit code 2.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rfipad-bench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		full     = flag.Bool("full", false, "use the paper's sample sizes (20 trials × 3 groups)")
		name     = flag.String("run", "", "run a single experiment by name")
		trials   = flag.Int("trials", 0, "override trials per motion per group")
		groups   = flag.Int("groups", 0, "override independent deployment groups")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 4, "concurrent groups")

		scenarios     = flag.Bool("scenarios", false, "run the scenario matrix through the real pipeline (smoke preset)")
		scenariosFull = flag.Bool("scenarios-full", false, "run the full scenario matrix (every axis populated)")
		scenarioName  = flag.String("scenario-preset", "", "scenario preset to run (overrides -scenarios/-scenarios-full selection)")
		scenariosJSON = flag.String("scenarios-json", "BENCH_scenarios.json", "output path for the scenario matrix report")
		flightDir     = flag.String("flight-dir", os.Getenv("RFIPAD_FLIGHT_DIR"), "flight-recorder directory for anomalous scenario trials (default $RFIPAD_FLIGHT_DIR)")

		diff    = flag.Bool("diff", false, "gate a scenario report against a baseline: rfipad-bench -diff OLD.json NEW.json")
		diffTol = flag.Float64("diff-accuracy-tol", 0.05, "per-cell accuracy tolerance for -diff")
	)
	flag.Parse()

	switch {
	case *trials < 0 || *groups < 0:
		return usageError("-trials and -groups must be non-negative")
	case *parallel <= 0:
		return usageError("-parallel must be positive (got %d)", *parallel)
	case *diffTol < 0:
		return usageError("-diff-accuracy-tol must be non-negative (got %g)", *diffTol)
	}

	if *diff {
		if flag.NArg() != 2 {
			return usageError("-diff takes exactly two report paths (got %d)", flag.NArg())
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), *diffTol); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *scenarios || *scenariosFull || *scenarioName != "" {
		preset := "smoke"
		if *scenariosFull {
			preset = "full"
		}
		if *scenarioName != "" {
			preset = *scenarioName
		}
		cfg, ok := scenario.Preset(preset)
		if !ok {
			return usageError("unknown scenario preset %q (registered: %s)",
				preset, scenarioPresetNames())
		}
		if err := runScenarioBench(cfg, *seed, *parallel, *flightDir, *scenariosJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	// Ctrl-C aborts between experiments instead of mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%-22s %s\n", e.Name, e.Description)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *groups > 0 {
		cfg.Groups = *groups
	}

	if *name != "" {
		start := time.Now()
		res, ok := experiments.Run(*name, cfg)
		if !ok {
			names := make([]string, 0, 32)
			for _, e := range experiments.List() {
				names = append(names, e.Name)
			}
			return usageError("unknown experiment %q (registered: %s)",
				*name, strings.Join(names, ", "))
		}
		fmt.Printf("=== %s (%v)\n%s\n", res.Name(), time.Since(start).Round(time.Millisecond), res)
		return 0
	}

	for _, e := range experiments.List() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			return 0
		}
		start := time.Now()
		res, _ := experiments.Run(e.Name, cfg)
		fmt.Printf("=== %s (%v)\n%s\n", e.Name, time.Since(start).Round(time.Millisecond), res)
	}
	return 0
}
