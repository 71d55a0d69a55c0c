package core

import (
	"math"
	"time"

	"rfipad/internal/obs"
)

// Sanitizer is the ingest-boundary guard: it rejects readings whose
// values no downstream stage could use — NaN/Inf phases and physically
// implausible RSSI — before they reach per-stream state, where a
// corrupted frame that decoded "successfully" would otherwise poison
// calibration means or segmentation statistics. It checks values only:
// when a reading is stamped is for the stream's Clock to judge.
// Rejections count into readings_rejected_total by reason.
type Sanitizer struct {
	phase *obs.Counter
	rss   *obs.Counter
}

// rssMin and rssMax bound plausible received signal strength in dBm:
// passive-tag backscatter is always well inside them.
const rssMin, rssMax = -120, 0

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
	}
}

// AdmitColumns filters a columnar batch in place, keeping only the
// readings downstream stages can use: a reading is rejected if its
// phase is NaN or ±Inf, or if its RSS lies outside [rssMin, rssMax].
// Rejections are counted by reason; admitted readings compact toward
// the front in order and the batch shrinks to hold only them. newest is
// unused; it remains for the callers that still pass it.
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
		if w != i {
			times[w] = times[i]
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
