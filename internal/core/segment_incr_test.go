package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rfipad/internal/dsp"
	"rfipad/internal/obs"
)

// multiLetterCapture synthesizes a 34 s writing stream on a 5×5 grid:
// three letters of two or three strokes, letters more than LetterGap
// apart, and a quiet stretch longer than historyKeep before the last
// letter, so a streaming consumer sees letter trims, quiet-stream trims
// and appended frames. gains, when given, scale each stroke's sweep.
func multiLetterCapture(t testing.TB, gains ...float64) (*Calibration, []Reading) {
	t.Helper()
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 31), n)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	strokes := []Span{
		{ms(3000), ms(4000)}, {ms(5000), ms(6200)}, // letter 1
		{ms(9500), ms(10500)}, {ms(11500), ms(12300)}, {ms(13300), ms(14300)}, // letter 2
		{ms(27000), ms(28200)}, {ms(29200), ms(30000)}, // letter 3
	}
	return cal, synthLetterStream(n, strokes, 34*time.Second, centres, sigmas, 32, gains...)
}

// checkSortedMirror asserts that sorted is exactly the NaN-free sorted
// copy of vals.
func checkSortedMirror(t *testing.T, what string, step int, vals, sorted []float64) {
	t.Helper()
	want := appendSorted(nil, vals)
	if !slices.Equal(sorted, want) {
		t.Fatalf("step %d: sorted %s multiset (%d values) differs from a sorted copy (%d values)", step, what, len(sorted), len(want))
	}
}

// checkScratch asserts every piece of state segmentRMSFrom carries
// across polls against a from-scratch computation over rms, the trace
// the last poll saw: the trace copy, each window std bit for bit, the
// two sorted multisets, and the seeding — the threshold it was built
// with, each frame's count of covering above-threshold windows, and the
// sorted multiset of the covered frames' values.
func checkScratch(t *testing.T, seg *Segmenter, step int, sc *segScratch, rms []float64) {
	t.Helper()
	if !slices.Equal(sc.rms, rms) {
		t.Fatalf("step %d: scratch trace copy diverged from the trace", step)
	}
	w := seg.WindowFrames
	if len(sc.stds) != max(len(rms)-w+1, 0) {
		t.Fatalf("step %d: %d window stds for %d frames", step, len(sc.stds), len(rms))
	}
	for f := range sc.stds {
		if v := dsp.Std(rms[f : f+w]); math.Float64bits(v) != math.Float64bits(sc.stds[f]) {
			t.Fatalf("step %d: window %d std %v, from scratch %v", step, f, sc.stds[f], v)
		}
	}
	checkSortedMirror(t, "window-std", step, sc.stds, sc.sortedStds)
	checkSortedMirror(t, "frame-RMS", step, rms, sc.sortedRMS)

	thre := seg.threshold(appendSorted(nil, sc.stds))
	if math.Float64bits(sc.seedThre) != math.Float64bits(thre) {
		t.Fatalf("step %d: seeded at threshold %v, from scratch %v", step, sc.seedThre, thre)
	}
	cover := make([]int32, len(rms))
	for f, v := range sc.stds {
		if v > thre {
			for k := f; k < f+w; k++ {
				cover[k]++
			}
		}
	}
	if !slices.Equal(sc.cover, cover) {
		t.Fatalf("step %d: cover counts %v, from scratch %v", step, sc.cover, cover)
	}
	var seeded []float64
	for k, c := range cover {
		if c > 0 {
			seeded = append(seeded, rms[k])
		}
	}
	checkSortedMirror(t, "seeded-frame", step, seeded, sc.sortedSeeded)
}

// addReading folds one reading into the cache the way the recognizer's
// per-element path does: a reading older than the cache's origin is
// dropped as late, any other goes to addColumns as a one-element run.
func addReading(c *segCache, rd Reading) {
	if rd.Time < c.origin {
		return
	}
	c.addColumns([]time.Duration{rd.Time}, []float64{rd.Phase}, []int32{NarrowTag(rd.TagIndex)})
}

// segDrive counts what one driveSegmentation run exercised.
type segDrive struct {
	polls, active, rebuilds       int
	letterTrims, quietTrims, jump int
	// columnPolls follow readings folded in by addColumns.
	columnPolls int
	// crossUp and crossDown count windows outside a poll's recomputed
	// range that the threshold moved past: up out of the seeded set,
	// down into it.
	crossUp, crossDown int
	// leftOut counts the spans resumed span passes left out.
	leftOut int
}

// checkResumed asserts that the spans of a pass resumed at frame from
// are the full pass's spans minus a prefix, every one of which ends at
// or before frame from, and returns the prefix's length.
func checkResumed(t *testing.T, seg *Segmenter, step int, start time.Duration, from int, resumed, full []Span) int {
	t.Helper()
	cut := len(full) - len(resumed)
	if cut < 0 || !slices.Equal(resumed, full[cut:]) {
		t.Fatalf("step %d: pass resumed at frame %d found %v, the full pass %v", step, from, resumed, full)
	}
	for _, sp := range full[:cut] {
		if sp.End > start+time.Duration(from)*seg.FrameLen {
			t.Fatalf("step %d: pass resumed at frame %d left out %v, which ends after it", step, from, sp)
		}
	}
	return cut
}

// driveSegmentation drives the streaming segmentation the way the
// recognizer does — a segCache fed reading by reading or in column runs
// (some readings delivered late, into frames behind the tail), one
// poll per frame crossing, history trims after each letter and on the
// quiet stretch, and flush-style horizon jumps whose following poll
// sees a shorter trace — and at every poll compares the incremental
// spans with a from-scratch segmentRMS over a copy of the same trace and
// checks the scratch with checkScratch.
func driveSegmentation(t *testing.T, seg *Segmenter, cal *Calibration, readings []Reading) segDrive {
	frameLen := seg.FrameLen
	w := seg.WindowFrames
	confirmGap := time.Duration(w) * frameLen
	const letterGap = 2500 * time.Millisecond
	var cache segCache
	cache.reset(frameLen, cal)
	var sc segScratch

	var (
		d          segDrive
		start, now time.Duration
		lastEnd    time.Duration
		letterOpen bool
		prevStds   []float64
	)
	lastFrame := int64(-1)
	trim := func(cut time.Duration) bool {
		cut -= cut % frameLen
		if cut <= start {
			return false
		}
		cache.trimTo(cut)
		start = cut
		return true
	}
	poll := func(horizon time.Duration) {
		rms, changed := cache.valuesSince(horizon)
		// The windows the poll leaves untouched, when it is incremental:
		// those before the first window that holds a changed frame, and
		// that survive the trim.
		untouched := 0
		if drop := int((start - sc.incrStart) / frameLen); sc.incrValid {
			if len(rms) < len(sc.rms)-drop {
				d.rebuilds++
			} else if drop < len(sc.stds) {
				untouched = min(max(changed-w+1, 0), len(sc.stds)-drop)
				prevStds = append(prevStds[:0], sc.stds[drop:drop+untouched]...)
			}
		}
		prevThre := sc.seedThre
		got := slices.Clone(seg.segmentRMSFrom(rms, start, &sc, changed, 0))
		want := seg.segmentRMS(slices.Clone(rms), start, nil)
		d.polls++
		if !slices.Equal(got, want) {
			t.Fatalf("poll %d (horizon %v, start %v, changed %d/%d): incremental spans %v, from scratch %v",
				d.polls, horizon, start, changed, len(rms), got, want)
		}
		if len(rms) > 0 { // an empty trace leaves the scratch as it was
			checkScratch(t, seg, d.polls, &sc, rms)
		}
		// The recognizer's resumed pass, from its re-detection cut: a
		// repeat poll with nothing changed reruns only the span pass.
		if skip := lastEnd - 2*frameLen - start; skip > 0 {
			from := int(skip / frameLen)
			resumed := seg.segmentRMSFrom(rms, start, &sc, len(rms), from)
			d.leftOut += checkResumed(t, seg, d.polls, start, from, resumed, want)
		}
		for _, v := range prevStds[:untouched] {
			if was, is := v > prevThre, v > sc.seedThre; was && !is {
				d.crossUp++
			} else if is && !was {
				d.crossDown++
			}
		}
		if n := len(sc.sortedStds); n > 0 && sc.sortedStds[n-1] > sc.seedThre {
			d.active++
		}

		// The recognizer's trim rules, reduced to span ends: a letter
		// closes LetterGap after its last stroke and keeps historyKeep of
		// context; a quiet stream trims to the same depth.
		for _, sp := range got {
			if sp.End > lastEnd {
				lastEnd, letterOpen = sp.End, true
			}
		}
		switch {
		case letterOpen && horizon-lastEnd >= letterGap:
			letterOpen = false
			if trim(lastEnd - historyKeep) {
				d.letterTrims++
			}
		case !letterOpen && horizon-historyKeep > lastEnd:
			if trim(horizon - historyKeep) {
				d.quietTrims++
			}
		}
	}

	// In-order readings in odd seconds of stream time gather into a
	// column run that addColumns folds in at the next frame crossing or
	// late reading, as the recognizer's bulk path does; the rest go
	// through addReading one by one.
	var run ReadingBatch
	foldRun := func() bool {
		if run.Len() == 0 {
			return false
		}
		cache.addColumns(run.Times, run.Phases, run.TagIndices)
		run.Reset()
		return true
	}
	ingest := func(rd Reading, inOrder bool) {
		if inOrder && rd.Time/time.Second%2 == 1 {
			run.AppendReading(rd)
		} else {
			foldRun()
			addReading(&cache, rd)
		}
		if rd.Time > now {
			now = rd.Time
		}
		if f := int64(now / frameLen); f != lastFrame {
			lastFrame = f
			if foldRun() {
				d.columnPolls++
			}
			poll(now)
		}
	}
	// Every 17th reading arrives 250 ms late, landing in a frame the
	// previous polls already consumed.
	type held struct {
		rd    Reading
		until time.Duration
	}
	var late []held
	jumpAt := []time.Duration{7500 * time.Millisecond, 20 * time.Second}
	for i, rd := range readings {
		for len(late) > 0 && late[0].until <= rd.Time {
			ingest(late[0].rd, false)
			late = late[1:]
		}
		if i%17 == 5 {
			late = append(late, held{rd, rd.Time + 250*time.Millisecond})
			continue
		}
		ingest(rd, true)
		if len(jumpAt) > 0 && now >= jumpAt[0] {
			// Flush's horizon: past ConfirmGap, bypassing the frame
			// throttle; the next regular poll sees a shorter trace.
			jumpAt = jumpAt[1:]
			foldRun()
			poll(now + confirmGap + time.Millisecond)
			d.jump++
		}
	}
	for _, h := range late {
		ingest(h.rd, false)
	}
	foldRun()
	poll(now + confirmGap + time.Millisecond)
	return d
}

// TestSegmentRMSFromMatchesFromScratch checks the incremental
// segmentation against a from-scratch one at every poll of
// driveSegmentation, with the adaptive threshold and with a fixed one.
// The adaptive run writes letter 1's second stroke at 2.4 times the
// others' sweep, so the threshold moves both ways across windows the
// poll does not recompute: up past letter 1's first stroke when the
// strong one arrives, and down past letter 2's strokes when the letter
// trim drops the strong one.
func TestSegmentRMSFromMatchesFromScratch(t *testing.T) {
	t.Run("adaptive", func(t *testing.T) {
		cal, readings := multiLetterCapture(t, 1, 2.4)
		d := driveSegmentation(t, NewSegmenter(), cal, readings)
		t.Logf("%+v", d)
		if d.active < d.polls/4 || d.letterTrims < 2 || d.quietTrims < 10 || d.rebuilds < 2 ||
			d.columnPolls < d.polls/4 || d.crossUp == 0 || d.crossDown == 0 || d.leftOut == 0 {
			t.Errorf("capture did not exercise every incremental path: %+v", d)
		}
	})
	t.Run("fixed", func(t *testing.T) {
		cal, readings := multiLetterCapture(t)
		seg := NewSegmenter()
		seg.Threshold = 0.6
		d := driveSegmentation(t, seg, cal, readings)
		t.Logf("%+v", d)
		if d.active < d.polls/4 || d.letterTrims < 2 || d.quietTrims < 10 || d.rebuilds < 2 ||
			d.columnPolls < d.polls/4 || d.leftOut == 0 {
			t.Errorf("capture did not exercise every incremental path: %+v", d)
		}
	})
}

// TestSegmentLongTrimMatchesRebuild pins the one-pass trim: a poll after
// a trim of 80 or more frames, with no frame changed, leaves every
// multiset (window stds, frame RMS, seeded frames) and the spans equal
// to a rebuild's. Each trim drops stroke frames, so the seeded multiset
// loses values too.
func TestSegmentLongTrimMatchesRebuild(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	seg := NewSegmenter()
	trace := seg.frameTrace(batchOf(readings), cal, 0, 34*time.Second)
	for _, drop := range []int{80, 87, 120, 200} {
		var sc segScratch
		seg.segmentRMSFrom(trace, 0, &sc, -1, 0)
		if len(sc.sortedSeeded) == 0 {
			t.Fatal("the capture seeds no frame")
		}
		rms := slices.Clone(trace[drop:])
		start := time.Duration(drop) * seg.FrameLen
		got := seg.segmentRMSFrom(rms, start, &sc, len(rms), 0)
		checkScratch(t, seg, drop, &sc, rms)
		if want := seg.segmentRMS(slices.Clone(rms), start, nil); !slices.Equal(got, want) {
			t.Fatalf("trim of %d frames: spans %v, from scratch %v", drop, got, want)
		}
	}
}

// TestRecognizerSegmentMultisetsStayExact checks the same scratch
// invariants on the production recognizer, whose own poll schedule,
// trims and Flush decide the geometry: after every ingest and after
// each Flush (one mid-stream, one at the end), checkScratch holds for
// the frame-RMS trace the last poll saw.
func TestRecognizerSegmentMultisetsStayExact(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	rec := NewRecognizer(NewPipeline(Grid{Rows: 5, Cols: 5}, cal), nil)
	check := func(step int) {
		if sc := &rec.scratch; len(sc.rms) > 0 {
			checkScratch(t, rec.seg, step, sc, sc.rms)
		}
	}
	flushed := false
	for i, rd := range readings {
		ingestOne(rec, rd)
		check(i)
		if !flushed && rd.Time >= 7500*time.Millisecond {
			flushed = true
			rec.Flush(rd.Time)
			check(i)
		}
	}
	rec.Flush(rec.clock.now)
	check(len(readings))
	if rec.bufStart == 0 {
		t.Error("the capture never trimmed the recognizer's history")
	}
}

// TestSegCacheCleanFramesAfterMidStreamFlush pins the cache's change
// watermark on the resume path: a stream that keeps ingesting column
// batches after a mid-stream Flush. Flush's poll computes frames past
// the stream's tail, before their readings arrive; the column batches
// that then fill those frames must lower the watermark, or the next
// polls see their stale values. After every batch, each frame below the
// watermark must equal, bit for bit, the reference frameRMS over the
// readings the recognizer accepted.
func TestSegCacheCleanFramesAfterMidStreamFlush(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	rec := NewRecognizer(NewPipeline(Grid{Rows: 5, Cols: 5}, cal), nil)
	var batch ReadingBatch
	var ledger acceptLedger
	flushedAt, refilled := time.Duration(-1), 0
	for i := 0; i < len(readings); i += 64 {
		batch.Reset()
		for _, rd := range readings[i:min(i+64, len(readings))] {
			batch.AppendReading(rd)
			ledger.add(rd)
		}
		rec.IngestBatch(&batch)
		if flushedAt < 0 && rec.clock.now >= 7500*time.Millisecond {
			rec.Flush(rec.clock.now)
			ledger.flush()
			flushedAt = rec.clock.now
		}
		checkCleanFrames(t, rec, &ledger, i/64)
		if flushedAt >= 0 && rec.clock.now > flushedAt && rec.clock.now < flushedAt+rec.confirmGap {
			refilled++
		}
	}
	if refilled == 0 {
		t.Fatal("no batch landed in the frames the mid-stream Flush computed ahead")
	}
}

// acceptLedger records the readings a recognizer accepts, by its rules:
// a Clock stepped like the recognizer's takes, drops or holds each
// reading, and of two taken readings with the same tag and time the
// first one wins. A reading older than the recognizer's trimmed history
// is dropped as late too; the ledger's clock has no floor, so the
// ledger keeps it, but it lies before the frame cache's origin, where
// no reference frame reads it.
type acceptLedger struct {
	clock    Clock
	seen     map[[2]int64]bool
	accepted []Reading
}

func (l *acceptLedger) add(rd Reading) {
	one := batchOf([]Reading{rd})
	for {
		switch l.clock.Step(one, 0) {
		case ClockTake:
			l.accept(rd)
		case ClockConfirmed:
			l.accept(l.clock.Ready().Reading(0))
			continue
		}
		return
	}
}

// flush mirrors Recognizer.Flush, which drops the held readings.
func (l *acceptLedger) flush() { l.clock.dropHeld() }

func (l *acceptLedger) accept(rd Reading) {
	key := [2]int64{int64(rd.TagIndex), int64(rd.Time)}
	if l.seen[key] {
		return
	}
	if l.seen == nil {
		l.seen = make(map[[2]int64]bool)
	}
	l.seen[key] = true
	l.accepted = append(l.accepted, rd)
}

// checkCleanFrames asserts that each frame below the recognizer's cache
// watermark equals, bit for bit, the reference frameRMS over the
// readings the ledger says it accepted. The recognizer's own history
// does not reach back to the cache's origin: it keeps only what a poll
// may still read.
func checkCleanFrames(t *testing.T, rec *Recognizer, ledger *acceptLedger, batch int) {
	t.Helper()
	c, seg := &rec.cache, rec.seg
	want := seg.frameRMS(ledger.accepted, rec.pipeline.Cal, c.origin, c.origin+time.Duration(c.clean)*seg.FrameLen)
	got := c.vals[c.off : c.off+c.clean]
	if f := sameBits(got, want); f >= 0 {
		t.Fatalf("batch %d: frame %d of %d below the watermark holds %v, its readings give %v",
			batch, f, c.clean, got[f], want[f])
	}
}

// TestRecognizerPerElementReadingsReachFrameCache checks that readings
// the recognizer accepts off its bulk path — reordered ones inserted
// back into time order, and equal-time readings of another tag — fold
// into the frame cache like the rest: after every batch of a stream
// with local reordering, duplicates, late readings and out-of-range
// tags, checkCleanFrames holds.
func TestRecognizerPerElementReadingsReachFrameCache(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(11))
	base := make([]float64, grid.NumTags())
	for i := range base {
		base[i] = rng.Float64() * 6.28
	}
	cal, err := Calibrate(equivQuiet(grid, base, 3*time.Second, rng), grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(grid, cal)
	p.Obs = obs.NewRegistry()
	rec := NewRecognizer(p, nil)
	stream := equivStream(grid, base, 20, rand.New(rand.NewSource(100)))
	var batch ReadingBatch
	var ledger acceptLedger
	for i := 0; i < len(stream); i += 64 {
		batch.Reset()
		for _, rd := range stream[i:min(i+64, len(stream))] {
			batch.AppendReading(rd)
			ledger.add(rd)
		}
		rec.IngestBatch(&batch)
		checkCleanFrames(t, rec, &ledger, i/64)
	}
	if n := p.Obs.Snapshot().Value("rfipad_readings_reordered_total"); n == 0 {
		t.Fatal("no reading was inserted out of order")
	}
}

// FuzzSegmentRMSFromMatchesFromScratch drives one scratch through trace
// edits decoded from the input — frames appended, frames rewritten from
// a watermark on, a prefix trimmed, and a horizon jump whose next poll
// sees a shorter trace — and after each edit compares the incremental
// spans with a from-scratch segmentRMS and checks the scratch with
// checkScratch. Each poll resumes its span pass at a frame the op byte
// picks, so its spans must be the from-scratch ones minus a prefix that
// ends by that frame (checkResumed). An odd first byte fixes the
// threshold instead of adapting it.
func FuzzSegmentRMSFromMatchesFromScratch(f *testing.F) {
	// Ops are a byte each (mod 4: append, rewrite, trim, jump; the rest,
	// op/4, places the poll's resume point at that many 64ths of the
	// trace) followed by a length or position byte and, for appends,
	// rewrites and jumps, the frame values (byte/32).
	f.Add([]byte{0, 0, 15, 2, 3, 2, 4, 3, 2, 30, 90, 20, 100, 3, 2, 2, 3, 4, 3, 2, 2,
		0, 9, 1, 2, 3, 2, 80, 120, 60, 3, 2, 2, 1, 3, 50, 70, 3, 4, 2, 3, 2, 2, 2, 2, 2,
		2, 4, 3, 3, 60, 90, 40, 0, 5, 3, 2, 3, 2, 2, 2, 2})
	f.Add([]byte{1, 0, 15, 1, 1, 1, 1, 1, 40, 40, 40, 40, 1, 1, 1, 1, 1, 1,
		1, 6, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
		2, 3, 0, 7, 9, 9, 9, 9, 9, 9, 9, 9, 3, 5, 200, 200, 200, 200, 200, 200})
	f.Add([]byte{2, 0, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0,
		0, 15, 5, 9, 60, 2, 70, 1, 80, 0, 90, 5, 6, 5, 4, 2, 2, 2, 9, 2, 2, 1, 1, 2, 2, 200})
	// Strokes separated by quiet stretches, polled with resume points
	// past them.
	f.Add([]byte{0, 0, 15, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
		128, 7, 90, 10, 120, 20, 100, 5, 80, 30, 252, 7, 2, 2, 2, 2, 2, 2, 2, 2,
		240, 7, 60, 120, 20, 90, 10, 110, 50, 40, 200, 7, 2, 2, 2, 2, 2, 2, 2, 2,
		249, 3, 2, 2, 2, 100, 1, 9, 180, 5, 20, 30, 100, 70, 90, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		seg := NewSegmenter()
		if b := next(); b%2 == 1 {
			seg.Threshold = float64(b) / 64
		}
		var (
			sc    segScratch
			trace []float64
			start time.Duration
		)
		var op byte
		poll := func(step int, rms []float64, changed int) {
			from := int(op/4) * (len(rms) + 1) / 64
			got := slices.Clone(seg.segmentRMSFrom(rms, start, &sc, changed, from))
			want := seg.segmentRMS(slices.Clone(rms), start, nil)
			checkResumed(t, seg, step, start, from, got, want)
			if len(rms) > 0 {
				checkScratch(t, seg, step, &sc, rms)
			}
		}
		for step := 0; len(data) > 0 && step < 48; step++ {
			op = next()
			switch op % 4 {
			case 0: // append frames
				from := len(trace)
				for n := int(next()%8) + 1; n > 0; n-- {
					trace = append(trace, float64(next())/32)
				}
				poll(step, trace, from)
			case 1: // rewrite the frames from a watermark on
				if len(trace) == 0 {
					continue
				}
				from := int(next()) % len(trace)
				for k := from; k < len(trace); k++ {
					trace[k] = float64(next()) / 32
				}
				poll(step, trace, from)
			case 2: // trim a prefix
				drop := int(next()) % (len(trace) + 1)
				trace = trace[:copy(trace, trace[drop:])]
				start += time.Duration(drop) * seg.FrameLen
				poll(step, trace, len(trace))
			case 3: // jump the horizon: the next poll sees the shorter trace
				ahead := slices.Clone(trace)
				for n := int(next()%8) + 1; n > 0; n-- {
					ahead = append(ahead, float64(next())/32)
				}
				poll(step, ahead, len(trace))
			}
		}
	})
}

// BenchmarkSegmenterActivePoll measures one streaming segmentation poll
// that gets past the quiet early exit — the shape of every poll while a
// user writes: a 15 s writing trace with two letters in view, a warmed
// scratch, and one changed frame per op. The changed frame alternates
// between its recorded value, which leaves the trace's own threshold,
// and one far above every stroke's, which makes its window the peak and
// lifts the adaptive threshold past seeded windows the poll does not
// recompute; so every op moves the threshold, up or back down. The
// ingest benchmarks feed quiet captures, which leave at the early exit
// and never reach the threshold, seeding and bridging work measured
// here. Must stay at 0 allocs/op (scripts/ci.sh gates it), on the
// threshold-move path too.
func BenchmarkSegmenterActivePoll(b *testing.B) {
	cal, readings := multiLetterCapture(b)
	seg := NewSegmenter()
	rms := seg.frameTrace(batchOf(readings), cal, 0, 15*time.Second)
	last := len(rms) - 1
	vals := [2]float64{rms[last], 2 * slices.Max(rms)}
	var sc segScratch
	seg.segmentRMSFrom(rms, 0, &sc, -1, 0)
	var thre [2]float64
	for i, v := range vals { // warm every buffer to its high-water mark
		rms[last] = v
		seg.segmentRMSFrom(rms, 0, &sc, last, 0)
		thre[i] = sc.seedThre
	}
	if thre[0] == thre[1] {
		b.Fatal("the alternate frame value does not move the threshold")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rms[last] = vals[i&1]
		if seg.segmentRMSFrom(rms, 0, &sc, last, 0) == nil {
			b.Fatal("active poll found no spans")
		}
	}
}
