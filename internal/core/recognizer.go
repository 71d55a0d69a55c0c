package core

import (
	"sort"
	"time"

	"rfipad/internal/obs"
)

// EventKind tags streaming recognizer outputs.
type EventKind int

// Event kinds.
const (
	// StrokeDetected is emitted once per recognized stroke.
	StrokeDetected EventKind = iota + 1
	// LetterDeduced is emitted when a quiet period closes a letter.
	LetterDeduced
)

// Event is one streaming recognition output.
type Event struct {
	Kind EventKind
	// At is the stream time the event was emitted.
	At time.Duration
	// Stroke carries the recognition result for StrokeDetected.
	Stroke MotionResult
	// Span is the detected stroke interval for StrokeDetected.
	Span Span
	// Letter carries the deduced character for LetterDeduced.
	Letter rune
	// LetterOK reports whether the composition succeeded.
	LetterOK bool
	// Strokes lists the observations composed into the letter.
	Strokes []StrokeObservation
}

// Recognizer is the online engine: feed it readings as the reader
// reports them and it emits stroke and letter events. It underlies the
// "realtime reaction" requirement of §I and the response-time
// evaluation of §V-D.
//
// The hot path is columnar: IngestBatch consumes a ReadingBatch
// (struct-of-arrays) and bulk-appends every strictly-in-order run with
// four copy calls, folding the run into the incremental per-frame
// statistics cache (segCache) in one column sweep. Full segmentation
// runs only when the stream crosses a frame boundary — never per
// reading — over cached frame values, and the segmenter's window stds
// and frame-RMS quiet floor are themselves maintained incrementally
// between polls. The
// per-reading Ingest survives as a thin wrapper over a one-element
// batch, so both entry points share one code path and emit identical
// events. Steady-state ingest allocates nothing once the buffers reach
// their high-water marks; the history columns trim in place and every
// segmentation workspace is recognizer-owned scratch.
type Recognizer struct {
	pipeline *Pipeline
	seg      *Segmenter
	tel      *recognizerTel

	// ConfirmGap is how long the stream must stay quiet past a span's
	// end before the span is considered closed (one segmentation
	// window by default).
	ConfirmGap time.Duration
	// LetterGap is the quiet period that finalizes a letter.
	LetterGap time.Duration

	// hist holds the retained history as time-ordered columns;
	// indices [head, hist.Len()) are the live window. Trims advance
	// head and compact in place once half the backing arrays are dead,
	// so steady-state ingest reuses one set of allocations.
	hist     ReadingBatch
	head     int
	bufStart time.Duration
	now      time.Duration

	cache         *segCache
	scratch       segScratch
	lastPollFrame int64

	// winScratch is the materialized []Reading view handed to
	// RecognizeWindow — rebuilt per detected stroke, never on the
	// per-reading path. EPC/Doppler are zero; the pipeline reads
	// neither.
	winScratch []Reading
	// scalarBatch is the reused one-element batch behind Ingest.
	scalarBatch ReadingBatch

	// emittedEnd is the end time of the last recognized span; spans
	// starting before it are re-detections of already-emitted strokes
	// (segment boundaries shift slightly as the buffer grows).
	emittedEnd time.Duration
	pending    []StrokeObservation
	lastStroke time.Duration
}

// NewRecognizer builds a streaming recognizer. The segmenter's frame
// geometry is captured at construction; mutate seg before, not after.
func NewRecognizer(p *Pipeline, seg *Segmenter) *Recognizer {
	if seg == nil {
		seg = NewSegmenter()
	}
	return &Recognizer{
		pipeline:   p,
		seg:        seg,
		tel:        newRecognizerTel(p.Obs),
		cache:      newSegCache(seg.FrameLen, p.Cal),
		ConfirmGap: time.Duration(seg.WindowFrames) * seg.FrameLen,
		// The letter gap must exceed the longest inter-stroke
		// adjustment interval (~2 s for a slow writer).
		LetterGap:     2500 * time.Millisecond,
		lastPollFrame: -1,
	}
}

// SkipTo fast-forwards an empty recognizer to stream time t (aligned
// down to a frame boundary): history before t is treated as already
// recognized and trimmed, so readings older than t are dropped as
// late. It is how a restored stream resumes at its checkpointed frame
// cursor without replaying the prelude. No-op once readings have been
// ingested or when t is not ahead of the current history start.
func (r *Recognizer) SkipTo(t time.Duration) {
	t -= t % r.seg.FrameLen
	if r.hist.Len() != 0 || t <= r.bufStart {
		return
	}
	r.bufStart = t
	r.now = t
	r.emittedEnd = t
	r.lastPollFrame = int64(t / r.seg.FrameLen)
	r.cache.skipTo(t)
}

// FrameCursor returns the frame-aligned stream time a checkpoint
// should resume recognition from: the newest complete frame boundary.
func (r *Recognizer) FrameCursor() time.Duration {
	return r.now - r.now%r.seg.FrameLen
}

// Ingest feeds one reading and returns any events it triggered. It is
// a thin compatibility wrapper over a one-element IngestBatch, so the
// scalar and columnar entry points share one implementation and one
// behavior: exact duplicates (same tag, same timestamp — replay
// overlap or a duplicated report frame) are dropped, modestly
// out-of-order readings are inserted at their correct position so the
// per-tag phase series stay monotonic, and readings older than the
// already-trimmed history are discarded.
func (r *Recognizer) Ingest(rd Reading) []Event {
	b := &r.scalarBatch
	b.Reset()
	b.AppendReading(rd)
	return r.IngestBatch(b)
}

// IngestBatch feeds a columnar batch of readings and returns every
// event they triggered, concatenated in emission order. The batch is
// only read — never retained — so the caller may Reset and reuse it as
// soon as IngestBatch returns. Readings should arrive roughly in time
// order; the recognizer tolerates what a reconnecting transport
// produces, with element-for-element the same accept/drop decisions,
// poll timing, and events as feeding the batch through Ingest one
// reading at a time.
//
// The hot path is the maximal strictly-increasing run that extends the
// history tail: it is appended with four bulk column copies and folded
// into the frame cache in one column sweep, with the segmentation poll
// fired at exactly the frame crossings the scalar path would fire it.
// Out-of-order, duplicate, and late readings fall back to a per-element
// path that mirrors the scalar logic.
func (r *Recognizer) IngestBatch(b *ReadingBatch) []Event {
	n := b.Len()
	if n == 0 {
		return nil
	}
	var events []Event
	var late, dupes, reordered uint64
	frameLen := r.seg.FrameLen
	times, phases, rss, tags := b.Times, b.Phases, b.RSS, b.TagIndices
	i := 0
	for i < n {
		t := times[i]
		histLen := r.hist.Len()
		inOrder := false
		if histLen == r.head {
			inOrder = t >= r.bufStart
		} else {
			inOrder = t > r.hist.Times[histLen-1]
		}
		if inOrder {
			// Poll gate: processing a reading whose time falls outside
			// [gateLo, gateHi) crosses a frame boundary and polls right
			// after that reading, exactly as the scalar path does. For
			// non-negative times, t outside the gate ⇔
			// int64(t/FrameLen) != lastPollFrame, without the division.
			gateLo := time.Duration(r.lastPollFrame) * frameLen
			gateHi := gateLo + frameLen
			j := i
			crossed := false
			for {
				tj := times[j]
				j++
				if tj >= gateHi || tj < gateLo {
					crossed = true
					break
				}
				if j >= n || times[j] <= tj {
					break
				}
			}
			r.hist.appendColumns(times[i:j], phases[i:j], rss[i:j], tags[i:j])
			r.cache.addColumns(times[i:j], phases[i:j], tags[i:j])
			// The run is strictly increasing and starts at or past both
			// bufStart and the history tail, so its last time is the new
			// stream high-water mark.
			if last := times[j-1]; last > r.now {
				r.now = last
			}
			if crossed {
				r.lastPollFrame = int64(r.now / frameLen)
				events = append(events, r.poll(r.now)...)
			}
			i = j
			continue
		}

		// Per-element path: late, duplicate, equal-time, or
		// out-of-order readings, handled exactly as the scalar
		// recognizer always has.
		if t > r.now {
			r.now = t
		}
		if t < r.bufStart {
			// Too late: this history was already recognized and trimmed.
			late++
			i++
			continue
		}
		liveTimes := r.hist.Times[r.head:]
		// Find the insertion point from the end — O(1) for in-order
		// streams, a short walk for transport-reordered ones.
		idx := len(liveTimes)
		for idx > 0 && liveTimes[idx-1] > t {
			idx--
		}
		// Duplicate check: entries with the same timestamp sit
		// immediately before the insertion point.
		tag := tags[i]
		dup := false
		for k := idx; k > 0 && liveTimes[k-1] == t; k-- {
			if r.hist.TagIndices[r.head+k-1] == tag {
				dup = true
				break
			}
		}
		if dup {
			dupes++
			i++
			continue
		}
		if idx == len(liveTimes) {
			r.hist.Append(t, phases[i], rss[i], tag)
		} else {
			reordered++
			r.hist.insertAt(r.head, idx, t, phases[i], rss[i], tag)
		}
		r.cache.add(Reading{TagIndex: int(tag), Time: t, Phase: phases[i], RSS: rss[i]})
		// Throttle segmentation to frame boundaries: between two
		// boundaries every poll would see the identical complete-frame
		// trace, so re-running it per reading only burns cycles. Late
		// (reordered) readings dirty their old frame in the cache and
		// are picked up at the next boundary.
		if pf := int64(r.now / frameLen); pf != r.lastPollFrame {
			r.lastPollFrame = pf
			events = append(events, r.poll(r.now)...)
		}
		i++
	}
	r.tel.readings.Add(uint64(n))
	if late > 0 {
		r.tel.late.Add(late)
	}
	if dupes > 0 {
		r.tel.dupes.Add(dupes)
	}
	if reordered > 0 {
		r.tel.reordered.Add(reordered)
	}
	return events
}

// Flush declares the stream over at the given time, forcing any
// pending stroke and letter out.
func (r *Recognizer) Flush(at time.Duration) []Event {
	if at < r.now {
		at = r.now
	}
	// Push the horizon far enough that every span closes, bypassing
	// the frame-boundary throttle.
	horizon := at + r.ConfirmGap + time.Millisecond
	r.lastPollFrame = int64(horizon / r.seg.FrameLen)
	events := r.poll(horizon)
	if len(r.pending) > 0 {
		events = append(events, r.finishLetter(at)...)
	}
	return events
}

// streamWarmup is how much buffered context segmentation needs before
// its adaptive thresholds are trustworthy; earlier polls are skipped.
const streamWarmup = 2 * time.Second

// minPreContext is the quiet lead a span must have inside the buffer:
// a real stroke is always preceded by a lead-in or adjustment interval,
// while threshold artefacts hug the buffer edge.
const minPreContext = 800 * time.Millisecond

// historyKeep is how much recognized history stays in the buffer after
// a letter is finalized, anchoring the adaptive segmentation
// thresholds for the next one. A long-quiet stream is trimmed to the
// same depth, so the buffer stays bounded even when nobody writes.
const historyKeep = 8 * time.Second

// poll re-segments the cached frame trace and emits every newly closed
// span, plus a letter when the quiet gap has elapsed and nothing is in
// progress.
func (r *Recognizer) poll(horizon time.Duration) []Event {
	if horizon-r.bufStart < streamWarmup {
		return nil
	}
	var events []Event
	segSpan := obs.StartTimer(r.tel.segment)
	rms, changed := r.cache.valuesSince(horizon)
	spans := r.seg.segmentRMSFrom(rms, r.bufStart, &r.scratch, changed)
	segSpan.End()
	openSpan := false
	var lastSpanEnd time.Duration
	for _, sp := range spans {
		if sp.End > lastSpanEnd {
			lastSpanEnd = sp.End
		}
		// Skip re-detections of spans already recognized: boundaries
		// wobble by a frame or two as context accumulates.
		if sp.Start < r.emittedEnd-2*r.seg.FrameLen {
			continue
		}
		if sp.Start-r.bufStart < minPreContext {
			continue
		}
		if sp.End+r.ConfirmGap > horizon {
			openSpan = true
			break // still open: more data may extend it
		}
		res := r.pipeline.RecognizeWindow(r.window(sp.Start, sp.End))
		r.emittedEnd = sp.End
		r.lastStroke = sp.End
		if !res.Ok {
			continue
		}
		r.tel.strokes.Inc()
		r.pending = append(r.pending, StrokeObservation{Motion: res.Motion, Box: res.Box, CenterX: res.CenterX, CenterY: res.CenterY})
		events = append(events, Event{
			Kind:   StrokeDetected,
			At:     horizon,
			Stroke: res,
			Span:   sp,
		})
	}
	if len(r.pending) > 0 && !openSpan && horizon-r.lastStroke >= r.LetterGap {
		events = append(events, r.finishLetter(horizon)...)
	} else if len(r.pending) == 0 && !openSpan {
		// Quiet-stream housekeeping: with no letter in progress the
		// only trim trigger used to be finishLetter, so an idle stream
		// grew its buffer forever. Trim to the same historyKeep depth a
		// letter leaves, but only when everything being dropped is
		// quiet (no span — detected, emitted, or skipped — reaches past
		// the cut), so the adaptive thresholds keep their context.
		cut := horizon - historyKeep
		if cut > r.bufStart && lastSpanEnd < cut && r.emittedEnd < cut && r.lastStroke < cut {
			r.trimTo(cut)
		}
	}
	return events
}

// window materializes the retained readings with Time in [start, end)
// into the recognizer's window scratch. The history is time-sorted, so
// the window is one contiguous column range located by binary search;
// the []Reading records exist only for RecognizeWindow's benefit and
// are rebuilt per call (EPC and Doppler are zero — the history columns
// do not carry them and the pipeline reads neither). The returned slice
// is only valid until the next window call.
func (r *Recognizer) window(start, end time.Duration) []Reading {
	liveTimes := r.hist.Times[r.head:]
	lo := sort.Search(len(liveTimes), func(i int) bool { return liveTimes[i] >= start })
	hi := lo + sort.Search(len(liveTimes[lo:]), func(i int) bool { return liveTimes[lo+i] >= end })
	m := hi - lo
	if cap(r.winScratch) < m {
		r.winScratch = make([]Reading, m)
	}
	r.winScratch = r.winScratch[:m]
	for k := 0; k < m; k++ {
		at := r.head + lo + k
		r.winScratch[k] = Reading{
			TagIndex: int(r.hist.TagIndices[at]),
			Time:     r.hist.Times[at],
			Phase:    r.hist.Phases[at],
			RSS:      r.hist.RSS[at],
		}
	}
	return r.winScratch
}

// trimTo discards history before cut (aligned down to a frame
// boundary so the cache's frame grid never shifts): the history head
// advances and the columns compact in place with copy once two thirds
// of the backing arrays are dead, reusing the existing allocations
// instead of re-growing fresh slices per letter.
func (r *Recognizer) trimTo(cut time.Duration) {
	cut -= cut % r.seg.FrameLen
	if cut <= r.bufStart {
		return
	}
	liveTimes := r.hist.Times[r.head:]
	r.head += sort.Search(len(liveTimes), func(i int) bool { return liveTimes[i] >= cut })
	// Compact lazily: waiting until two thirds of the backing arrays are
	// dead trades a little resident memory for ~⅓ fewer steady-state
	// memmoves, which show up directly in the batch-ingest hot path.
	if 3*r.head > 2*r.hist.Len() {
		r.hist.compactTo(r.head)
		r.head = 0
	}
	r.bufStart = cut
	r.cache.trimTo(cut)
}

// finishLetter composes the pending strokes and resets for the next
// letter.
func (r *Recognizer) finishLetter(at time.Duration) []Event {
	span := obs.StartTimer(r.tel.grammar)
	ch, ok := ComposeLetter(r.pending)
	span.End()
	r.tel.letters.Inc()
	ev := Event{
		Kind:     LetterDeduced,
		At:       at,
		Letter:   ch,
		LetterOK: ok,
		Strokes:  r.pending,
	}
	// Trim old history so the buffer stays bounded, but keep several
	// seconds before the cut: the segmenter's adaptive thresholds need
	// real strokes in context, or quiet-period ripple right after a
	// letter would read as activity.
	r.trimTo(r.lastStroke - historyKeep)
	r.pending = nil
	return []Event{ev}
}
