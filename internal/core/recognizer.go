package core

import (
	"slices"
	"sync"
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
// statistics cache (segCache) in one column sweep. Segmentation runs
// only when the stream crosses a frame boundary — never per reading —
// and a poll costs the frames that changed since the last one, not the
// retained trace: the cache recomputes frames from its change watermark
// on, and the segmenter keeps its window stds, the frame-RMS quiet
// floor, and the seeded frames with their median across polls. The
// history columns trim in place and every segmentation workspace is
// recognizer-owned scratch, so steady-state ingest allocates nothing.
// Release recycles those buffers into the next recognizer built, which
// starts at the released one's high-water capacity instead of
// regrowing it from empty.
//
// A stream keeps only what can still change. A reading more than
// maxRegression behind the newest one is dropped as late (the
// sanitizer's rule, so a sanitized stream loses nothing to it), which
// lets every poll retire the frame accumulators before that late
// horizon and drop the history readings no span still to be
// recognized and no dedup check can read. The frame-value trace
// behind the adaptive thresholds still reaches back to bufStart.
type Recognizer struct {
	pipeline *Pipeline
	seg      *Segmenter
	tel      *recognizerTel

	// confirmGap is how long the stream must stay quiet past a span's
	// end before the span is considered closed: one segmentation
	// window.
	confirmGap time.Duration

	// *recBuffers holds the history columns, the segmentation cache
	// and its scratch; nil once released. The history's indices
	// [head, hist.Len()) are the live window. Polls and trims advance
	// head; reserve compacts the columns in place when they are full,
	// so steady-state ingest reuses one set of allocations.
	*recBuffers
	head     int
	bufStart time.Duration
	now      time.Duration

	lastPollFrame int64

	// emittedEnd is the end time of the last recognized span; spans
	// starting before it are re-detections of already-emitted strokes
	// (segment boundaries shift slightly as the buffer grows).
	emittedEnd time.Duration
	pending    []StrokeObservation
	lastStroke time.Duration
}

// recBuffers is what a recognizer grows while it runs: the history
// columns, the segmentation cache and the segmentation scratch. The
// history holds the readings from just before the last recognized
// stroke's end, or at least the last second, in at most twice its
// largest window; the cache holds one value per frame since bufStart
// and about a second of accumulators. A live stream writing a word
// holds about 130 KB in all. Release hands them to the next
// NewRecognizer through recBufferPool; only their capacity crosses
// from one stream to the next.
type recBuffers struct {
	hist    ReadingBatch
	cache   segCache
	scratch segScratch
}

// reset empties recycled buffers for a new stream on cal: only their
// capacity survives, so a recognizer built on them behaves exactly as
// one built on new buffers.
func (b *recBuffers) reset(frameLen time.Duration, cal *Calibration) {
	b.hist.Reset()
	b.cache.reset(frameLen, cal)
	b.scratch.reset()
}

// recBufferPool recycles released recognizers' buffers. It pays off
// only for a recognizer built in the same process soon after another
// one was released: after an engine's Close (closed-loop replay that
// builds an engine per batch of recordings) or an evict (a cluster
// handoff adopting on another node). Two garbage collections empty the
// pool, so a stream built long after the last release, or while every
// earlier stream is still open, grows its own buffers from empty.
var recBufferPool = sync.Pool{New: func() any { return new(recBuffers) }}

// releasedMsg is the panic of a recognizer used after Release: its
// buffers may already belong to another stream.
const releasedMsg = "core: Recognizer used after Release"

// NewRecognizer builds a streaming recognizer. The segmenter's frame
// geometry is captured at construction; mutate seg before, not after.
// Its buffers come from the last released recognizer when there is
// one.
func NewRecognizer(p *Pipeline, seg *Segmenter) *Recognizer {
	if seg == nil {
		seg = NewSegmenter()
	}
	buf := recBufferPool.Get().(*recBuffers)
	buf.reset(seg.FrameLen, p.Cal)
	return &Recognizer{
		pipeline:      p,
		seg:           seg,
		tel:           newRecognizerTel(p.Obs),
		recBuffers:    buf,
		confirmGap:    time.Duration(seg.WindowFrames) * seg.FrameLen,
		lastPollFrame: -1,
	}
}

// Release hands the recognizer's buffers to the next NewRecognizer.
// Call it once the stream is over; the events already returned stay
// valid, since none of them shares memory with the buffers. The
// recognizer must not be used afterwards: IngestBatch and Flush panic
// rather than write into buffers another stream may own. A second
// Release is a no-op.
func (r *Recognizer) Release() {
	if r.recBuffers == nil {
		return
	}
	recBufferPool.Put(r.recBuffers)
	r.recBuffers = nil
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

// IngestBatch feeds a columnar batch of readings and returns every
// event they triggered, concatenated in emission order. The batch is
// only read — never retained — so the caller may Reset and reuse it as
// soon as IngestBatch returns. Readings should arrive roughly in time
// order; the recognizer tolerates what a reconnecting transport
// produces: exact duplicates (same tag, same timestamp — replay
// overlap or a duplicated report frame) are dropped, modestly
// out-of-order readings are inserted at their correct position so the
// per-tag phase series stay monotonic, and late readings are
// discarded: those more than maxRegression behind the newest reading
// (the sanitizer's own rule, so a sanitized stream has none) or older
// than the already-trimmed history. How a capture is cut into
// batches never matters: one batch makes element-for-element the same
// accept/drop decisions, poll timing, and events as the same readings
// fed as one-element batches.
//
// The hot path is the maximal strictly-increasing run that extends the
// history tail: it is appended with four bulk column copies and folded
// into the frame cache in one column sweep, with the segmentation poll
// fired at exactly the frame crossings a one-element feed would fire
// it at. Out-of-order, duplicate, and late readings take a per-element
// path.
func (r *Recognizer) IngestBatch(b *ReadingBatch) []Event {
	if r.recBuffers == nil {
		panic(releasedMsg)
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	seg := r.tel.segment.Buffer()
	defer seg.Fold()
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
			// after that reading, as the per-element path does. For
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
			r.reserve(j - i)
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
				events = append(events, r.poll(r.now, &seg)...)
			}
			i = j
			continue
		}

		// Per-element path: late, duplicate, equal-time, or
		// out-of-order readings.
		if t > r.now {
			r.now = t
		}
		if t < r.bufStart || t < r.now-maxRegression {
			// Too late: this history was already recognized and
			// trimmed, or its frame accumulators retired.
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
		r.reserve(1)
		if idx == len(liveTimes) {
			r.hist.Append(t, phases[i], rss[i], tag)
		} else {
			reordered++
			r.hist.insertAt(r.head, idx, t, phases[i], rss[i], tag)
		}
		r.cache.addColumns(times[i:i+1], phases[i:i+1], tags[i:i+1])
		// Throttle segmentation to frame boundaries: between two
		// boundaries every poll would see the identical complete-frame
		// trace, so re-running it per reading only burns cycles. Late
		// (reordered) readings lower the cache's change watermark to
		// their old frame and are picked up at the next boundary.
		if pf := int64(r.now / frameLen); pf != r.lastPollFrame {
			r.lastPollFrame = pf
			events = append(events, r.poll(r.now, &seg)...)
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
	if r.recBuffers == nil {
		panic(releasedMsg)
	}
	seg := r.tel.segment.Buffer()
	defer seg.Fold()
	if at < r.now {
		at = r.now
	}
	// Push the horizon far enough that every span closes, bypassing
	// the frame-boundary throttle.
	horizon := at + r.confirmGap + time.Millisecond
	r.lastPollFrame = int64(horizon / r.seg.FrameLen)
	events := r.poll(horizon, &seg)
	if len(r.pending) > 0 {
		events = append(events, r.finishLetter(at)...)
	}
	return events
}

// letterGap is the quiet period that finalizes a letter. It must exceed
// the longest inter-stroke adjustment interval (~2 s for a slow
// writer).
const letterGap = 2500 * time.Millisecond

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
// progress. Then, warm-up or not, it sheds what no later poll can read.
// The segmentation's time goes to seg, which the caller folds.
func (r *Recognizer) poll(horizon time.Duration, seg *obs.HistogramBuffer) []Event {
	defer r.shed()
	if horizon-r.bufStart < streamWarmup {
		return nil
	}
	var events []Event
	t0 := obs.Mono()
	rms, changed := r.cache.valuesSince(horizon)
	// Every span that starts before the re-detection cut is skipped
	// below, so the span pass may leave out the spans that end before
	// it. Those never decide the quiet trim either: it needs emittedEnd
	// past the cut too, and they end before emittedEnd.
	from := 0
	if skip := r.emittedEnd - 2*r.seg.FrameLen - r.bufStart; skip > 0 {
		from = int(skip / r.seg.FrameLen)
	}
	spans := r.seg.segmentRMSFrom(rms, r.bufStart, &r.scratch, changed, from)
	seg.ObserveFrom(t0)
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
		if sp.End+r.confirmGap > horizon {
			openSpan = true
			break // still open: more data may extend it
		}
		lo, hi := r.windowRange(sp.Start, sp.End)
		res := r.pipeline.RecognizeWindow(r.hist.Slice(lo, hi))
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
	if len(r.pending) > 0 && !openSpan && horizon-r.lastStroke >= letterGap {
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

// shed drops the state no later reading or span can reach. Frames
// before the late horizon (maxRegression behind the newest reading)
// retire their accumulators. The history keeps the readings from the
// earlier of two horizons: the earliest start a span still to be
// recognized can have (past both the re-detection cut behind
// emittedEnd and minPreContext into the buffer), and the late horizon,
// behind which no reading lands to be deduplicated or inserted. The
// span bound never moves back: bufStart only advances, and so does
// emittedEnd, since an emitted span starts at most two frames before
// the last one's end and lasts at least minSpan.
func (r *Recognizer) shed() {
	late := r.now - maxRegression
	r.cache.retire(late)
	keep := min(max(r.emittedEnd-2*r.seg.FrameLen, r.bufStart+minPreContext), late)
	k, _ := slices.BinarySearch(r.hist.Times[r.head:], keep)
	r.head += k
}

// reserve makes room for k more history readings without growing the
// columns past twice the largest live window: when they are full, the
// live window moves to the front of the arrays if it then fills at
// most two thirds of them, and to new arrays of twice its size
// otherwise. A move copies at most two readings per reading it frees,
// and a new size is at least 4/3 of the last one, so a stream's
// capacity settles after a few moves.
func (r *Recognizer) reserve(k int) {
	h := &r.hist
	n := h.Len()
	if n+k <= cap(h.Times) {
		return
	}
	need := n - r.head + k
	if 3*need <= 2*cap(h.Times) {
		h.compactTo(r.head)
	} else {
		h.regrow(r.head, 2*need)
	}
	r.head = 0
}

// windowRange returns the history column range [lo, hi) holding the
// readings with Time in [start, end). The history is time-sorted and
// free of (tag, time) duplicates, so the range is located by two binary
// searches and the pipeline splits it by tag without sorting.
func (r *Recognizer) windowRange(start, end time.Duration) (lo, hi int) {
	liveTimes := r.hist.Times[r.head:]
	lo, _ = slices.BinarySearch(liveTimes, start)
	hi, _ = slices.BinarySearch(liveTimes[lo:], end)
	return r.head + lo, r.head + lo + hi
}

// trimTo discards history and frames before cut (aligned down to a
// frame boundary so the cache's frame grid never shifts): bufStart
// moves to cut and the history head advances past it. The freed room
// is reused by reserve.
func (r *Recognizer) trimTo(cut time.Duration) {
	cut -= cut % r.seg.FrameLen
	if cut <= r.bufStart {
		return
	}
	k, _ := slices.BinarySearch(r.hist.Times[r.head:], cut)
	r.head += k
	r.bufStart = cut
	r.cache.trimTo(cut)
}

// finishLetter composes the pending strokes and resets for the next
// letter.
func (r *Recognizer) finishLetter(at time.Duration) []Event {
	t0 := obs.Mono()
	ch, ok := ComposeLetter(r.pending)
	r.tel.grammar.ObserveFrom(t0)
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
