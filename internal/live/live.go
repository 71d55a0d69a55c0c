// Package live is the per-stream recognition state machine: Stream
// buffers one tag stream's static prelude, calibrates the diversity
// suppression once from it (tolerating dead tags), and recognizes
// strokes and letters online. The stream lifecycle around it —
// checkpoint restore, calibration telemetry, periodic saves, tracing,
// fencing, and panic quarantine — is internal/engine's, which runs one
// Stream per tag stream. Between a report source and a recognition
// service sits the one drain loop, Drainer.Drain, which engine.RunStream
// and cluster.RunStream both run; rfipad-live drives every mode
// through them.
package live

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
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

// ReportSource is the slice of llrp.Session the drain loop pulls
// report frames through (Session satisfies it; tests and replays may
// substitute). A frame is valid until the next NextReports call;
// llrp.ErrStreamEnded reports the stream's clean end.
type ReportSource interface {
	NextReports() ([]llrp.TagReport, error)
}

// Drainer is a recognition service's share of the drain loop: where a
// panicking source is counted and logged. engine.Engine and
// cluster.Cluster each hold one.
type Drainer struct {
	// Panics counts each panicking source once (required).
	Panics *obs.Counter
	// Logger, when set, records each source panic with its stack.
	Logger *slog.Logger
}

// Drain is the one drain loop between a report source and a
// recognition service: it pulls src's frames until the stream ends,
// and blocks the calling goroutine until then.
//
// Each non-empty frame is decoded once, into a pooled batch
// (core.GetBatch, AppendReports), and handed to push, which owns it
// from then on; an empty frame is skipped. An error from push means
// the service is closing: Drain returns it at once, without a flush.
// When the source ends cleanly (llrp.ErrStreamEnded), Drain flushes
// the stream and returns nil. On any other source error it flushes and
// returns the error. A panicking source is recovered: the panic is
// counted, logged with its stack under id, the stream is flushed, and
// the returned error names the panic.
func (d Drainer) Drain(id string, src ReportSource, push func(*core.ReadingBatch) error, flush func()) error {
	for {
		reports, err := d.next(id, src)
		if err != nil {
			flush()
			if errors.Is(err, llrp.ErrStreamEnded) {
				return nil
			}
			return err
		}
		if len(reports) == 0 {
			continue
		}
		b := core.GetBatch()
		AppendReports(b, reports)
		if err := push(b); err != nil {
			return err
		}
	}
}

// next pulls src's next frame under the drain loop's recover boundary.
// Only the source runs inside it, so no lock a push or a flush takes
// is ever held when a panic is recovered.
func (d Drainer) next(id string, src ReportSource) (reports []llrp.TagReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.Panics.Inc()
			if d.Logger != nil {
				d.Logger.Error("stream source panicked",
					"stream", id, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			}
			err = fmt.Errorf("source panicked: %v", r)
		}
	}()
	return src.NextReports()
}
