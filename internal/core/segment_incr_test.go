package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"rfipad/internal/dsp"
)

// multiLetterCapture synthesizes a 34 s writing stream on a 5×5 grid:
// three letters of two or three strokes, letters more than LetterGap
// apart, and a quiet stretch longer than historyKeep before the last
// letter, so a streaming consumer sees letter trims, quiet-stream trims
// and appended frames.
func multiLetterCapture(t testing.TB) (*Calibration, []Reading) {
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
	return cal, synthLetterStream(n, strokes, 34*time.Second, centres, sigmas, 32)
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

// TestSegmentRMSFromMatchesFromScratch drives the streaming
// segmentation the way the recognizer does — a segCache fed reading by
// reading (some delivered late, dirtying frames behind the tail), one
// poll per frame crossing, history trims after each letter and on the
// quiet stretch, and flush-style horizon jumps whose following poll
// sees a shorter trace — and at every poll compares the incremental
// spans with a from-scratch segmentRMS over a copy of the same trace.
// Both maintained multisets must equal sorted copies of what they
// mirror after every poll.
func TestSegmentRMSFromMatchesFromScratch(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	seg := NewSegmenter()
	frameLen := seg.FrameLen
	confirmGap := time.Duration(seg.WindowFrames) * frameLen
	const letterGap = 2500 * time.Millisecond
	var cache segCache
	cache.reset(frameLen, cal)
	var sc segScratch

	var (
		start, now                    time.Duration
		lastEnd                       time.Duration
		letterOpen                    bool
		polls, active, rebuilds       int
		letterTrims, quietTrims, jump int
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
		if drop := int((start - sc.incrStart) / frameLen); sc.incrValid && len(rms) < len(sc.rms)-drop {
			rebuilds++
		}
		got := slices.Clone(seg.segmentRMSFrom(rms, start, &sc, changed))
		want := seg.segmentRMS(slices.Clone(rms), start, nil)
		polls++
		if !slices.Equal(got, want) {
			t.Fatalf("poll %d (horizon %v, start %v, changed %d/%d): incremental spans %v, from scratch %v",
				polls, horizon, start, changed, len(rms), got, want)
		}
		if !slices.Equal(sc.rms, rms) {
			t.Fatalf("poll %d: scratch trace copy diverged from the trace", polls)
		}
		for f := range sc.stds {
			if v := dsp.Std(rms[f : f+seg.WindowFrames]); math.Float64bits(v) != math.Float64bits(sc.stds[f]) {
				t.Fatalf("poll %d: window %d std %v, from scratch %v", polls, f, sc.stds[f], v)
			}
		}
		checkSortedMirror(t, "window-std", polls, sc.stds, sc.sortedStds)
		checkSortedMirror(t, "frame-RMS", polls, rms, sc.sortedRMS)
		if n := len(sc.sortedStds); n > 0 && sc.sortedStds[n-1] > seg.effectiveThreshold(sc.stds) {
			active++
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
				letterTrims++
			}
		case !letterOpen && horizon-historyKeep > lastEnd:
			if trim(horizon - historyKeep) {
				quietTrims++
			}
		}
	}

	// Every 17th reading arrives 250 ms late, landing in a frame the
	// previous polls already consumed.
	type held struct {
		rd    Reading
		until time.Duration
	}
	var late []held
	ingest := func(rd Reading) {
		cache.add(rd)
		if rd.Time > now {
			now = rd.Time
		}
		if f := int64(now / frameLen); f != lastFrame {
			lastFrame = f
			poll(now)
		}
	}
	jumpAt := []time.Duration{7500 * time.Millisecond, 20 * time.Second}
	for i, rd := range readings {
		for len(late) > 0 && late[0].until <= rd.Time {
			ingest(late[0].rd)
			late = late[1:]
		}
		if i%17 == 5 {
			late = append(late, held{rd, rd.Time + 250*time.Millisecond})
			continue
		}
		ingest(rd)
		if len(jumpAt) > 0 && now >= jumpAt[0] {
			// Flush's horizon: past ConfirmGap, bypassing the frame
			// throttle; the next regular poll sees a shorter trace.
			jumpAt = jumpAt[1:]
			poll(now + confirmGap + time.Millisecond)
			jump++
		}
	}
	for _, h := range late {
		ingest(h.rd)
	}
	poll(now + confirmGap + time.Millisecond)

	t.Logf("%d polls (%d past the quiet exit), %d letter trims, %d quiet trims, %d horizon jumps, %d rebuilds",
		polls, active, letterTrims, quietTrims, jump, rebuilds)
	if active < polls/4 || letterTrims < 2 || quietTrims < 10 || rebuilds < 2 {
		t.Errorf("capture did not exercise every incremental path: %d/%d active polls, %d letter trims, %d quiet trims, %d rebuilds",
			active, polls, letterTrims, quietTrims, rebuilds)
	}
}

// TestRecognizerSegmentMultisetsStayExact checks the same multiset
// invariants on the production recognizer, whose own poll schedule,
// trims and Flush decide the geometry: after every ingest and after
// each Flush (one mid-stream, one at the end), both sorted multisets
// equal sorted copies of the window stds and the frame-RMS trace the
// last poll saw.
func TestRecognizerSegmentMultisetsStayExact(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	rec := NewRecognizer(NewPipeline(Grid{Rows: 5, Cols: 5}, cal), nil)
	check := func(step int) {
		sc := &rec.scratch
		checkSortedMirror(t, "window-std", step, sc.stds, sc.sortedStds)
		checkSortedMirror(t, "frame-RMS", step, sc.rms, sc.sortedRMS)
	}
	flushed := false
	for i, rd := range readings {
		rec.Ingest(rd)
		check(i)
		if !flushed && rd.Time >= 7500*time.Millisecond {
			flushed = true
			rec.Flush(rd.Time)
			check(i)
		}
	}
	rec.Flush(rec.now)
	check(len(readings))
	if rec.bufStart == 0 {
		t.Error("the capture never trimmed the recognizer's history")
	}
}

// BenchmarkSegmenterActivePoll measures one streaming segmentation poll
// that gets past the quiet early exit — the shape of every poll while a
// user writes: a 15 s writing trace with two letters in view, a warmed
// scratch, and one changed frame per op. The ingest benchmarks feed
// quiet captures, which leave at the early exit and never reach the
// threshold, seeding and bridging work measured here. Must stay at
// 0 allocs/op (scripts/ci.sh gates it).
func BenchmarkSegmenterActivePoll(b *testing.B) {
	cal, readings := multiLetterCapture(b)
	seg := NewSegmenter()
	rms := seg.FrameRMSTrace(readings, cal, 0, 15*time.Second)
	last := len(rms) - 1
	vals := [2]float64{rms[last], 1.5*rms[last] + 0.01}
	var sc segScratch
	seg.segmentRMSFrom(rms, 0, &sc, -1)
	for _, v := range vals { // warm every buffer to its high-water mark
		rms[last] = v
		seg.segmentRMSFrom(rms, 0, &sc, last)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rms[last] = vals[i&1]
		if seg.segmentRMSFrom(rms, 0, &sc, last) == nil {
			b.Fatal("active poll found no spans")
		}
	}
}
