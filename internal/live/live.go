// Package live is the per-stream recognition state machine: Stream
// buffers one tag stream's static prelude, calibrates the diversity
// suppression once from it (tolerating dead tags), and recognizes
// strokes and letters online. The stream lifecycle around it —
// checkpoint restore, calibration telemetry, periodic saves, tracing,
// fencing, and panic quarantine — is internal/engine's, which runs one
// Stream per tag stream; rfipad-live drives every mode through it.
package live

import (
	"time"

	"rfipad/internal/core"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
)

// Config tunes a stream.
type Config struct {
	// Grid is the tag-array geometry (default 5×5).
	Grid core.Grid
	// CalibDuration is the static prelude length used for calibration
	// (default 3 s of stream time).
	CalibDuration time.Duration
	// Obs selects the metrics registry the recognizer's rfipad_* series
	// land in (nil = obs.Default()).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Grid.Rows == 0 && c.Grid.Cols == 0 {
		c.Grid = core.Grid{Rows: 5, Cols: 5}
	}
	if c.CalibDuration <= 0 {
		c.CalibDuration = 3 * time.Second
	}
	return c
}

// flushAfter pads a stream's final flush horizon past its last reading.
const flushAfter = 2 * time.Second

// ReportSource is the slice of llrp.Session a stream's drain loop
// needs (Session satisfies it; tests and replays may substitute).
type ReportSource interface {
	NextReports() ([]llrp.TagReport, error)
}
