package main

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rfipad/internal/experiments/scenario"
)

// newProvenance stamps a scenario report with the commit, seed, and
// toolchain that produced it, so the committed BENCH_scenarios.json
// baseline is self-describing.
func newProvenance(seed int64) scenario.Provenance {
	return scenario.Provenance{
		Commit:    buildCommit(),
		Seed:      seed,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
}

// buildCommit resolves the VCS revision: the build-info stamp when the
// binary was built from a checkout, else `git rev-parse` (covers `go
// run` and `go test`, which skip VCS stamping), else "unknown".
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}
