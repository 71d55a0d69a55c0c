package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rfipad/internal/obs"
)

// midLetterRecognizer feeds the multi-letter capture until the
// recognizer is mid-letter with all of its state live: strokes pending,
// a trimmed history whose head has not been compacted away, a cache
// re-anchored past origin 0 with retired frames, and a valid
// incremental segmentation.
func midLetterRecognizer(t *testing.T) (*Recognizer, *Calibration) {
	t.Helper()
	cal, readings := multiLetterCapture(t)
	r := NewRecognizer(NewPipeline(Grid{Rows: 5, Cols: 5}, cal), nil)
	for _, rd := range readings {
		ingestOne(r, rd)
		if len(r.pending) > 0 && r.head > 0 && r.cache.origin > 0 && r.cache.done > 0 && r.scratch.incrValid {
			return r, cal
		}
	}
	t.Fatal("the capture never left the recognizer mid-letter with a trimmed history")
	return nil, nil
}

// TestRecBuffersResetKeepsOnlyCapacity pins what a recycled recognizer
// starts from: the buffers a mid-letter recognizer grew come back empty,
// with the frame grid at origin 0, no dead prefix, no retired frame,
// the change watermark at frame 0 and the incremental segmentation
// invalid (no cover counts, no seeded frames, no remembered threshold),
// and with their capacity kept.
func TestRecBuffersResetKeepsOnlyCapacity(t *testing.T) {
	r, cal := midLetterRecognizer(t)
	b := r.recBuffers
	if b.cache.clean == 0 || len(b.scratch.sortedSeeded) == 0 || b.scratch.seedThre == 0 {
		t.Fatalf("mid-letter recognizer holds no watermark or seeded frames: clean %d, %d seeded at %v",
			b.cache.clean, len(b.scratch.sortedSeeded), b.scratch.seedThre)
	}
	histCap, accCap, stdsCap, coverCap := cap(b.hist.Times), cap(b.cache.acc), cap(b.scratch.stds), cap(b.scratch.cover)
	b.reset(r.seg.FrameLen, cal)
	if b.hist.Len() != 0 || len(b.cache.acc) != 0 || len(b.cache.vals) != 0 || b.cache.clean != 0 {
		t.Errorf("reset kept contents: %d history readings, %d cells, %d frames, watermark %d",
			b.hist.Len(), len(b.cache.acc), len(b.cache.vals), b.cache.clean)
	}
	if b.cache.origin != 0 || b.cache.off != 0 || b.cache.done != 0 || b.cache.accBase != 0 {
		t.Errorf("reset kept the frame grid: origin %v, %d dead frames, %d retired from %d",
			b.cache.origin, b.cache.off, b.cache.done, b.cache.accBase)
	}
	sc := &b.scratch
	if sc.incrValid || sc.incrStart != 0 || len(sc.stds) != 0 || len(sc.rms) != 0 {
		t.Errorf("reset kept the incremental segmentation: valid %v from %v, %d stds, %d frames",
			sc.incrValid, sc.incrStart, len(sc.stds), len(sc.rms))
	}
	if len(sc.cover) != 0 || len(sc.sortedSeeded) != 0 || sc.seedThre != 0 {
		t.Errorf("reset kept the seeded frames: %d cover counts, %d seeded, threshold %v",
			len(sc.cover), len(sc.sortedSeeded), sc.seedThre)
	}
	if cap(b.hist.Times) != histCap || cap(b.cache.acc) != accCap || cap(sc.stds) != stdsCap || cap(sc.cover) != coverCap {
		t.Errorf("reset dropped capacity: history %d → %d, cells %d → %d, stds %d → %d, cover %d → %d",
			histCap, cap(b.hist.Times), accCap, cap(b.cache.acc), stdsCap, cap(sc.stds), coverCap, cap(sc.cover))
	}
}

// TestRecognizerReleaseIsFinal pins the two release safety rules: a
// second Release is a no-op, so the two recognizers built next never
// share a buffer, and a released recognizer panics on use instead of
// writing into buffers another stream may own.
func TestRecognizerReleaseIsFinal(t *testing.T) {
	// One P and no collection: both Puts of a double release would land
	// in this goroutine's pool slots, where the next two Gets find them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r, cal := midLetterRecognizer(t)
	r.Release()
	r.Release()
	p := NewPipeline(Grid{Rows: 5, Cols: 5}, cal)
	a, b := NewRecognizer(p, nil), NewRecognizer(p, nil)
	ingestOne(a, Reading{TagIndex: 0, Time: time.Second})
	ingestOne(b, Reading{TagIndex: 0, Time: time.Second})
	if a.recBuffers == b.recBuffers || &a.hist.Times[0] == &b.hist.Times[0] ||
		&a.cache.acc[0] == &b.cache.acc[0] {
		t.Fatal("two recognizers built after a double release share their buffers")
	}

	for _, use := range []struct {
		name string
		call func()
	}{
		{"IngestBatch", func() {
			var one ReadingBatch
			one.Append(time.Hour, 0, 0, 0)
			r.IngestBatch(&one)
		}},
		{"Flush", func() { r.Flush(time.Hour) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released recognizer did not panic", use.name)
				}
			}()
			use.call()
		}()
	}
}

// TestRecognizerFoldsSegmentObservations pins the segment stage's
// buffered observations: after every IngestBatch and Flush call, and
// after Release, the stage histogram's count equals the number of polls
// that ran segmentation. A recognizer fed one reading per call counts
// them by the poll rule (a frame crossing at least streamWarmup past
// bufStart). One fed 64-reading batches, which poll several times per
// call, must match it at every batch boundary, since batching never
// moves a poll.
func TestRecognizerFoldsSegmentObservations(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	newRec := func() (*Recognizer, *obs.Histogram) {
		p := NewPipeline(Grid{Rows: 5, Cols: 5}, cal)
		p.Obs = obs.NewRegistry()
		return NewRecognizer(p, nil), p.Obs.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageSegment))
	}
	one, oneHist := newRec()
	polls := make([]uint64, len(readings)) // segmentation polls once reading i is in
	var n uint64
	for i, rd := range readings {
		frame, bufStart := one.lastPollFrame, one.bufStart
		ingestOne(one, rd)
		if one.lastPollFrame != frame && one.clock.now-bufStart >= streamWarmup {
			n++
		}
		if got := oneHist.Count(); got != n {
			t.Fatalf("reading %d: %d segment observations after %d segmentation polls", i, got, n)
		}
		polls[i] = n
	}
	batched, batchedHist := newRec()
	for i := 0; i < len(readings); i += 64 {
		j := min(i+64, len(readings))
		batched.IngestBatch(batchOf(readings[i:j]))
		if got, want := batchedHist.Count(), polls[j-1]; got != want {
			t.Fatalf("batch %d: %d segment observations after %d segmentation polls", i/64, got, want)
		}
	}
	if n < 100 {
		t.Fatalf("only %d segmentation polls", n)
	}
	// Flush polls once, past the warm-up.
	for _, r := range []struct {
		rec  *Recognizer
		hist *obs.Histogram
	}{{one, oneHist}, {batched, batchedHist}} {
		r.rec.Flush(r.rec.clock.now)
		if got := r.hist.Count(); got != n+1 {
			t.Fatalf("after Flush: %d segment observations, want %d", got, n+1)
		}
		r.rec.Release()
		if got := r.hist.Count(); got != n+1 {
			t.Fatalf("after Release: %d segment observations, want %d", got, n+1)
		}
	}
}
