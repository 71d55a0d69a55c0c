//go:build race

package live_test

// raceEnabled mirrors the root package's guard: exact AllocsPerRun
// assertions are unreliable under the race detector's instrumentation.
const raceEnabled = true
