package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// midLetterRecognizer feeds the multi-letter capture until the
// recognizer is mid-letter with all of its state live: strokes pending,
// a trimmed history whose head has not been compacted away, a cache
// re-anchored past origin 0, and a valid incremental segmentation.
func midLetterRecognizer(t *testing.T) (*Recognizer, *Calibration) {
	t.Helper()
	cal, readings := multiLetterCapture(t)
	r := NewRecognizer(NewPipeline(Grid{Rows: 5, Cols: 5}, cal), nil)
	for _, rd := range readings {
		r.Ingest(rd)
		if len(r.pending) > 0 && r.head > 0 && r.cache.origin > 0 && r.scratch.incrValid {
			return r, cal
		}
	}
	t.Fatal("the capture never left the recognizer mid-letter with a trimmed history")
	return nil, nil
}

// TestRecBuffersResetKeepsOnlyCapacity pins what a recycled recognizer
// starts from: the buffers a mid-letter recognizer grew come back empty,
// with the frame grid at origin 0, no dead prefix and the incremental
// segmentation invalid, and with their capacity kept.
func TestRecBuffersResetKeepsOnlyCapacity(t *testing.T) {
	r, cal := midLetterRecognizer(t)
	b := r.recBuffers
	histCap, accCap, stdsCap := cap(b.hist.Times), cap(b.cache.acc), cap(b.scratch.stds)
	b.reset(r.seg.FrameLen, cal)
	if b.hist.Len() != 0 || len(b.cache.acc) != 0 || len(b.cache.vals) != 0 || len(b.cache.dirty) != 0 {
		t.Errorf("reset kept contents: %d history readings, %d cells, %d/%d frames",
			b.hist.Len(), len(b.cache.acc), len(b.cache.vals), len(b.cache.dirty))
	}
	if b.cache.origin != 0 || b.cache.off != 0 {
		t.Errorf("reset kept the frame grid: origin %v, %d dead frames", b.cache.origin, b.cache.off)
	}
	if b.scratch.incrValid || b.scratch.incrStart != 0 || len(b.scratch.stds) != 0 || len(b.scratch.rms) != 0 {
		t.Errorf("reset kept the incremental segmentation: valid %v from %v, %d stds, %d frames",
			b.scratch.incrValid, b.scratch.incrStart, len(b.scratch.stds), len(b.scratch.rms))
	}
	if cap(b.hist.Times) != histCap || cap(b.cache.acc) != accCap || cap(b.scratch.stds) != stdsCap {
		t.Errorf("reset dropped capacity: history %d → %d, cells %d → %d, stds %d → %d",
			histCap, cap(b.hist.Times), accCap, cap(b.cache.acc), stdsCap, cap(b.scratch.stds))
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
	a.Ingest(Reading{TagIndex: 0, Time: time.Second})
	b.Ingest(Reading{TagIndex: 0, Time: time.Second})
	if a.recBuffers == b.recBuffers || &a.hist.Times[0] == &b.hist.Times[0] ||
		&a.cache.acc[0] == &b.cache.acc[0] {
		t.Fatal("two recognizers built after a double release share their buffers")
	}

	for _, use := range []struct {
		name string
		call func()
	}{
		{"Ingest", func() { r.Ingest(Reading{TagIndex: 0, Time: time.Hour}) }},
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
