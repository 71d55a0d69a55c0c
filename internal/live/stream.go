package live

import (
	"fmt"
	"slices"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/llrp"
	"rfipad/internal/supervise"
	"rfipad/internal/tagmodel"
)

// Stream is the calibrate-then-recognize state machine for one tag
// stream: it buffers the static prelude, calibrates once enough of it
// has arrived (tolerating dead tags), then feeds every further reading
// to an online Recognizer. engine.Engine runs one per tag stream,
// sharded across its workers, and owns the lifecycle around it.
type Stream struct {
	cfg Config
	// prelude holds the static capture until it covers CalibDuration,
	// in a pooled batch that goes back to the pool once calibration
	// succeeds.
	prelude *core.ReadingBatch
	cal     *core.Calibration
	rec     *core.Recognizer
	// clock is the stream's time from its first reading to its last:
	// the prelude steps it until calibration, the recognizer from then
	// on.
	clock core.Clock
	// calEndTime and calEndTag identify the reading that completed the
	// prelude. The prelude owns it and every reading stamped before it,
	// so when a resumed transport redelivers them after calibration
	// they are dropped rather than recognized. A restored stream has no
	// prelude (its tag is -1); its recognizer drops what predates the
	// cursor.
	calEndTime time.Duration
	calEndTag  int32
	released   bool
}

// NewStream builds a stream state machine; event fan-out stays with
// the caller.
func NewStream(cfg Config) *Stream {
	return &Stream{cfg: cfg.withDefaults()}
}

// ReadingFromReport converts one wire-format tag report into a reading
// record, resolving the EPC to its row-major tag index as AppendReports
// does, for callers that still hold records.
func ReadingFromReport(rep llrp.TagReport) core.Reading {
	return core.Reading{
		TagIndex: tagmodel.SerialOf(rep.EPC) - 1,
		EPC:      rep.EPC,
		Time:     rep.Timestamp,
		Phase:    rep.PhaseRad,
		RSS:      rep.RSSdBm,
		Doppler:  rep.DopplerHz,
	}
}

// AppendReports decodes wire-format tag reports into a columnar batch:
// the one decode from what a reader reports to what the pipeline
// takes, run on live streams and simulated captures alike. The EPC is
// resolved to its row-major tag index (tagmodel.SerialOf − 1) and
// Doppler is dropped here (the batch columns do not carry them; the
// tag index is all downstream stages key on). Each column grows once
// per call and is filled by index.
func AppendReports(dst *core.ReadingBatch, reports []llrp.TagReport) {
	n := len(reports)
	times, phases := extend(&dst.Times, n), extend(&dst.Phases, n)
	rss, tags := extend(&dst.RSS, n), extend(&dst.TagIndices, n)
	for i := range reports {
		rep := &reports[i]
		times[i] = rep.Timestamp
		phases[i] = rep.PhaseRad
		rss[i] = rep.RSSdBm
		tags[i] = core.NarrowTag(tagmodel.SerialOf(rep.EPC) - 1)
	}
}

// extend lengthens *col by n elements, growing it at most once, and
// returns the new elements.
func extend[T any](col *[]T, n int) []T {
	l := len(*col)
	*col = slices.Grow(*col, n)[:l+n]
	return (*col)[l:][:n]
}

// IngestBatch feeds a columnar batch of readings. The stream's clock
// judges each reading first (core.Clock): a late one is dropped, and
// one stamped ahead waits for the next reading to confirm or drop it.
// Readings up to the calibration boundary accumulate into the static
// prelude (the reading that completes CalibDuration triggers
// calibration and is part of the prelude, not the recognized stream);
// once the prelude covers CalibDuration the stream calibrates, hands
// its clock to the recognizer, and everything after the boundary flows
// to the recognizer in one columnar call. A resumed transport replays
// a short overlap; prelude readings it redelivers after calibration
// are skipped unless the clock finds them late, and the runs between
// them go to the recognizer (calibration already dedups the ones it
// sees, and the recognizer those of its own history), so where a
// reconnect lands never changes what is recognized. The batch is only
// read, never retained. A calibration error is terminal for the
// stream: the rest of the batch is not ingested.
func (s *Stream) IngestBatch(b *core.ReadingBatch) ([]core.Event, error) {
	if s.released {
		panic("live: Stream used after Release")
	}
	n := b.Len()
	i := 0
	for i < n && s.rec == nil {
		src, k := b, i
		switch s.clock.Step(b, i) {
		case core.ClockTake:
			i++
		case core.ClockConfirmed:
			// The held reading goes first, in its place. If it
			// completes the prelude, row i goes to the recognizer.
			src, k = s.clock.Ready(), 0
		default:
			i++
			continue
		}
		if err := s.addPrelude(src, k); err != nil {
			return nil, err
		}
	}
	rest := b.Slice(i, n)
	var events []core.Event
	lo := 0
	for k, t := range rest.Times {
		if !s.preludeOwns(t, rest.TagIndices[k]) {
			continue
		}
		// The runs before are recognized first, so the clock is
		// current: a late reading goes on to be counted as late.
		events = s.recognize(events, rest.Slice(lo, k))
		lo = k
		if !s.clock.Late(t) {
			lo = k + 1
		}
	}
	return s.recognize(events, rest.Slice(lo, rest.Len())), nil
}

// addPrelude appends row k of b to the prelude and, once the prelude
// covers CalibDuration, calibrates and starts the recognizer on the
// stream's clock.
func (s *Stream) addPrelude(b *core.ReadingBatch, k int) error {
	t := b.Times[k]
	if s.prelude == nil {
		s.prelude = core.GetBatch()
	}
	s.prelude.Append(t, b.Phases[k], b.RSS[k], b.TagIndices[k])
	if t < s.cfg.CalibDuration {
		return nil
	}
	cal, err := core.CalibrateBatch(s.prelude, s.cfg.Grid.NumTags())
	if err != nil {
		return fmt.Errorf("live: calibration failed: %w", err)
	}
	s.cal = cal
	core.PutBatch(s.prelude)
	s.prelude = nil
	pipe := core.NewPipeline(s.cfg.Grid, cal)
	pipe.Obs = s.cfg.Obs
	s.rec = core.NewRecognizer(pipe, nil)
	s.rec.UseClock(&s.clock)
	s.calEndTime, s.calEndTag = t, b.TagIndices[k]
	return nil
}

// recognize feeds one run of readings to the recognizer and appends the
// events it triggers.
func (s *Stream) recognize(events []core.Event, run core.ReadingBatch) []core.Event {
	if run.Len() == 0 {
		return events
	}
	evs := s.rec.IngestBatch(&run)
	if len(events) == 0 {
		return evs
	}
	return append(events, evs...)
}

// preludeOwns reports whether a reading that arrives after calibration
// belongs to the prelude: stamped before the boundary reading, or the
// boundary reading itself.
func (s *Stream) preludeOwns(t time.Duration, tag int32) bool {
	return t < s.calEndTime || t == s.calEndTime && tag == s.calEndTag
}

// Flush declares the stream over, forcing any pending stroke and
// letter out (no-op before calibration).
func (s *Stream) Flush() []core.Event {
	if s.released {
		panic("live: Stream used after Release")
	}
	if s.rec == nil {
		return nil
	}
	return s.rec.Flush(s.clock.Now() + flushAfter)
}

// Release hands the stream's buffers to the streams built after it:
// the recognizer's (core.Recognizer.Release) and, before calibration,
// the prelude batch. Call it once the stream's final events and
// checkpoint are taken; the stream must not be used afterwards.
// IngestBatch and Flush panic, and Checkpoint reports nothing. A second
// Release is a no-op.
func (s *Stream) Release() {
	s.released = true
	core.PutBatch(s.prelude)
	s.prelude = nil
	if s.rec != nil {
		s.rec.Release()
	}
}

// Calibrated reports whether the static prelude completed.
func (s *Stream) Calibrated() bool { return s.rec != nil }

// Checkpoint exports the stream's durable recovery state: its
// calibration, its clock, and the frame cursor recognition would
// resume from (the clock's frame, so never before the frame of the
// reading that completed the prelude). ok is false before calibration
// — an uncalibrated stream has nothing worth persisting — and after
// Release.
func (s *Stream) Checkpoint(name string) (supervise.Checkpoint, bool) {
	if s.cal == nil || s.rec == nil || s.released {
		return supervise.Checkpoint{}, false
	}
	return supervise.Checkpoint{
		Stream:      name,
		StreamTime:  s.clock.Now(),
		FrameCursor: s.rec.FrameCursor(),
		Calibration: s.cal.Snapshot(),
	}, true
}

// RestoreStream rebuilds a stream from a checkpoint, skipping the
// calibration prelude: the stream's clock resumes at the checkpoint's
// stream time, and the restored recognizer at its frame cursor,
// dropping older (already recognized) readings as late. The checkpoint's calibration is revalidated and
// must match the configured grid; any mismatch returns an error so the
// caller falls back to live calibration.
func RestoreStream(cfg Config, cp supervise.Checkpoint) (*Stream, error) {
	cfg = cfg.withDefaults()
	cal, err := core.RestoreCalibration(cp.Calibration)
	if err != nil {
		return nil, fmt.Errorf("live: restore: %w", err)
	}
	if cal.NumTags() != cfg.Grid.NumTags() {
		return nil, fmt.Errorf("live: restore: checkpoint has %d tags, grid wants %d",
			cal.NumTags(), cfg.Grid.NumTags())
	}
	pipe := core.NewPipeline(cfg.Grid, cal)
	pipe.Obs = cfg.Obs
	s := &Stream{cfg: cfg, cal: cal, rec: core.NewRecognizer(pipe, nil),
		clock: core.ClockAt(cp.StreamTime), calEndTag: -1}
	s.rec.UseClock(&s.clock)
	s.rec.SkipTo(cp.FrameCursor)
	return s, nil
}

// DeadTags returns how many tags calibration flagged dead (0 before
// calibration).
func (s *Stream) DeadTags() int {
	if s.cal == nil {
		return 0
	}
	return s.cal.DeadCount()
}

// LastTime returns the stream's clock: the newest reading time it has
// taken. A reading its clock dropped or still holds does not move it.
func (s *Stream) LastTime() time.Duration { return s.clock.Now() }
