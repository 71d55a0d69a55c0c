package core

import (
	"math"
	"time"

	"rfipad/internal/obs"
)

// Sanitizer is the ingest-boundary guard: it rejects readings no
// downstream stage could use — NaN/Inf phases, physically implausible
// RSSI, and timestamps regressing further than the transport's
// duplicate window — before they reach per-stream state. The
// recognizer tolerates modest reordering and exact duplicates on its
// own; the sanitizer exists for the pathological inputs (a corrupted
// frame that decoded "successfully", a reader with a broken clock)
// that would otherwise poison calibration means or segmentation
// statistics. Rejections count into readings_rejected_total by reason.
type Sanitizer struct {
	phase *obs.Counter
	rss   *obs.Counter
	time  *obs.Counter
}

const (
	// maxRegression is how far behind the newest delivered timestamp a
	// reading may arrive: the transport's resume overlap plus reorder
	// tolerance. Older readings are clock regressions, not reordering.
	maxRegression = time.Second
	// rssMin and rssMax bound plausible received signal strength in
	// dBm: passive-tag backscatter is always well inside them.
	rssMin, rssMax = -120, 0
)

// NewSanitizer builds a sanitizer, counting
// rejections into reg (nil = obs.Default()).
func NewSanitizer(reg *obs.Registry) *Sanitizer {
	r := obs.Or(reg)
	rejected := func(reason string) *obs.Counter {
		return r.Counter("readings_rejected_total",
			"Readings rejected at the ingest boundary, by reason.",
			obs.L("reason", reason))
	}
	return &Sanitizer{
		phase: rejected("phase"),
		rss:   rejected("rss"),
		time:  rejected("time_regression"),
	}
}

// AdmitColumns filters a columnar batch in place, keeping only the
// readings downstream stages can use: a reading is rejected if its
// phase is NaN or ±Inf, if its RSS lies outside [rssMin, rssMax], or if
// its timestamp is more than maxRegression behind newest. newest is the
// stream's newest previously delivered timestamp (0 before any, when
// nothing can regress) and advances over each admitted reading, so a
// regressing timestamp later in the batch is judged against the
// batch's own progress. Rejections are counted by reason; admitted
// readings compact toward the front in order and the batch shrinks to
// hold only them.
func (z *Sanitizer) AdmitColumns(b *ReadingBatch, newest time.Duration) {
	times, phases, rss, tags := b.Times, b.Phases, b.RSS, b.TagIndices
	w := 0
	for i := range times {
		if !isFinite(phases[i]) {
			z.phase.Inc()
			continue
		}
		if rss[i] < rssMin || rss[i] > rssMax {
			z.rss.Inc()
			continue
		}
		t := times[i]
		if newest > 0 && t < newest-maxRegression {
			z.time.Inc()
			continue
		}
		if t > newest {
			newest = t
		}
		if w != i {
			times[w] = t
			phases[w] = phases[i]
			rss[w] = rss[i]
			tags[w] = tags[i]
		}
		w++
	}
	b.Times = times[:w]
	b.Phases = phases[:w]
	b.RSS = rss[:w]
	b.TagIndices = tags[:w]
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
