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
// A stream keeps only what can still change. Its Clock judges every
// reading first: one more than maxRegression behind the clock is
// dropped as late, and one more than maxRegression ahead is held until
// the next reading confirms or drops it. So every poll may retire the
// frame accumulators before the late horizon and drop the history
// readings no span still to be recognized and no dedup check can read.
// The frame-value trace behind the adaptive thresholds still reaches
// back to bufStart.
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
	// clock is the stream's time: the newest reading taken, and the
	// late and ahead rule. Its floor is bufStart.
	clock *Clock

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
		clock:         new(Clock),
	}
}

// UseClock makes c the recognizer's clock from now on: the clock a
// stream's prelude stepped until calibration, so the stream keeps one
// time from its first reading to its last. Call it before the first
// IngestBatch. The drops c counted before are counted as the
// recognizer's.
func (r *Recognizer) UseClock(c *Clock) {
	r.clock = c
	r.foldDrops()
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
	r.clock.floor = t
	r.clock.now = max(r.clock.now, t)
	r.emittedEnd = t
	r.lastPollFrame = int64(t / r.seg.FrameLen)
	r.cache.skipTo(t)
}

// FrameCursor returns the frame-aligned stream time a checkpoint
// should resume recognition from: the frame the clock reads. A clock
// handed over at calibration reads the reading that completed the
// prelude, so the cursor never precedes that reading's frame.
func (r *Recognizer) FrameCursor() time.Duration {
	now := r.clock.now
	return now - now%r.seg.FrameLen
}

// IngestBatch feeds a columnar batch of readings and returns every
// event they triggered, concatenated in emission order. The batch is
// only read — never retained — so the caller may Reset and reuse it as
// soon as IngestBatch returns. Readings should arrive roughly in time
// order; the recognizer tolerates what a reconnecting transport
// produces: exact duplicates (same tag, same timestamp — replay
// overlap or a duplicated report frame) are dropped, modestly
// out-of-order readings are inserted at their correct position so the
// per-tag phase series stay monotonic, and the clock drops late
// readings and holds the ones stamped ahead of it (Clock). How a
// capture is cut into batches never matters: one batch makes
// element-for-element the same accept/drop decisions, poll timing, and
// events as the same readings fed as one-element batches.
//
// The hot path is the maximal strictly-increasing run that extends the
// history tail: once the clock takes its first reading, it is appended
// with four bulk column copies and folded into the frame cache in one
// column sweep, with the segmentation poll fired at exactly the frame
// crossings a one-element feed would fire it at. The run ends before a
// reading more than maxRegression after its predecessor, which the
// clock must judge. Out-of-order, duplicate and equal-time readings,
// and a held reading the clock confirms, take a per-element path.
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
	var dupes, reordered uint64
	c := r.clock
	frameLen := r.seg.FrameLen
	times, phases, rss, tags := b.Times, b.Phases, b.RSS, b.TagIndices
	i := 0
	for i < n {
		src, k := b, i
		switch c.Step(b, i) {
		case ClockLate, ClockHeld:
			i++
			continue
		case ClockConfirmed:
			// The held reading goes first, in its place; row i is
			// stepped again after it.
			src, k = c.Ready(), 0
		default:
			t := times[i]
			histLen := r.hist.Len()
			inOrder := false
			if histLen == r.head {
				inOrder = t >= r.bufStart
			} else {
				inOrder = t > r.hist.Times[histLen-1]
			}
			if !inOrder {
				i++
				break
			}
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
					// A step of more than maxRegression always crosses
					// a frame; the clock judges the reading after it.
					if j-1 > i && tj-times[j-2] > maxRegression {
						j--
					} else {
						crossed = true
					}
					break
				}
				if j >= n || times[j] <= tj {
					break
				}
			}
			r.reserve(j - i)
			r.hist.appendColumns(times[i:j], phases[i:j], rss[i:j], tags[i:j])
			r.cache.addColumns(times[i:j], phases[i:j], tags[i:j])
			// The run is strictly increasing, starts at a reading the
			// clock took and steps by at most maxRegression, so every
			// reading of it agrees with the clock, and its last time
			// is the clock's new value.
			c.now = max(c.now, times[j-1])
			if crossed {
				r.lastPollFrame = int64(c.now / frameLen)
				events = append(events, r.poll(c.now, &seg)...)
			}
			i = j
			continue
		}

		// Per-element path: duplicate, equal-time or out-of-order
		// readings, and confirmed held ones.
		t, tag := src.Times[k], src.TagIndices[k]
		liveTimes := r.hist.Times[r.head:]
		// Find the insertion point from the end — O(1) for in-order
		// streams, a short walk for transport-reordered ones.
		idx := len(liveTimes)
		for idx > 0 && liveTimes[idx-1] > t {
			idx--
		}
		// Duplicate check: entries with the same timestamp sit
		// immediately before the insertion point.
		dup := false
		for d := idx; d > 0 && liveTimes[d-1] == t; d-- {
			if r.hist.TagIndices[r.head+d-1] == tag {
				dup = true
				break
			}
		}
		if dup {
			dupes++
			continue
		}
		r.reserve(1)
		if idx == len(liveTimes) {
			r.hist.Append(t, src.Phases[k], src.RSS[k], tag)
		} else {
			reordered++
			r.hist.insertAt(r.head, idx, t, src.Phases[k], src.RSS[k], tag)
		}
		r.cache.addColumns(src.Times[k:k+1], src.Phases[k:k+1], src.TagIndices[k:k+1])
		// Throttle segmentation to frame boundaries: between two
		// boundaries every poll would see the identical complete-frame
		// trace, so re-running it per reading only burns cycles. Late
		// (reordered) readings lower the cache's change watermark to
		// their old frame and are picked up at the next boundary.
		if pf := int64(c.now / frameLen); pf != r.lastPollFrame {
			r.lastPollFrame = pf
			events = append(events, r.poll(c.now, &seg)...)
		}
	}
	r.tel.readings.Add(uint64(n))
	r.foldDrops()
	if dupes > 0 {
		r.tel.dupes.Add(dupes)
	}
	if reordered > 0 {
		r.tel.reordered.Add(reordered)
	}
	return events
}

// foldDrops adds the clock's late and ahead drops to the recognizer's
// telemetry.
func (r *Recognizer) foldDrops() {
	late, ahead := r.clock.takeDrops()
	if late > 0 {
		r.tel.late.Add(late)
	}
	if ahead > 0 {
		r.tel.ahead.Add(ahead)
	}
}

// Flush declares the stream over at the given time, forcing any
// pending stroke and letter out. A stream that is over has no reading
// left to confirm a held one, so the clock drops them as ahead.
func (r *Recognizer) Flush(at time.Duration) []Event {
	if r.recBuffers == nil {
		panic(releasedMsg)
	}
	seg := r.tel.segment.Buffer()
	defer seg.Fold()
	r.clock.dropHeld()
	r.foldDrops()
	at = max(at, r.clock.now)
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
	late := r.clock.now - maxRegression
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
	r.clock.floor = cut
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
