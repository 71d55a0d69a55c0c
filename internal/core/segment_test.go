package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/dsp"
)

// synthLetterStream builds a stream with quiet–stroke–quiet–stroke–…
// structure: during stroke intervals a moving subset of tags shows
// large phase excursions; elsewhere only noise. gains, when given,
// scale each stroke's excursion (a missing entry is 1).
func synthLetterStream(numTags int, strokes []Span, total time.Duration, centres, sigmas []float64, seed int64, gains ...float64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	var out []Reading
	for tm := time.Duration(0); tm < total; tm += 30 * time.Millisecond {
		inStroke := false
		var u float64
		gain := 1.0
		for k, sp := range strokes {
			if tm >= sp.Start && tm < sp.End {
				inStroke = true
				u = float64(tm-sp.Start) / float64(sp.End-sp.Start)
				if k < len(gains) {
					gain = gains[k]
				}
				break
			}
		}
		for i := 0; i < numTags; i++ {
			p := centres[i] + rng.NormFloat64()*sigmas[i]
			if inStroke && i%5 == 2 { // the swept column
				p += gain * 1.3 * math.Sin(u*2*math.Pi*2)
			}
			out = append(out, Reading{
				TagIndex: i, Time: tm + time.Duration(i)*200*time.Microsecond,
				Phase: dsp.Wrap(p), RSS: -45,
			})
		}
	}
	return out
}

func TestSegmenterFindsStrokes(t *testing.T) {
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 11), n)
	if err != nil {
		t.Fatal(err)
	}
	truth := []Span{
		{Start: time.Second, End: 2200 * time.Millisecond},
		{Start: 3200 * time.Millisecond, End: 4 * time.Second},
	}
	total := 5 * time.Second
	readings := synthLetterStream(n, truth, total, centres, sigmas, 12)
	seg := NewSegmenter()
	spans := seg.Segment(batchOf(readings), cal, 0, total)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2: %v", len(spans), spans)
	}
	for k, sp := range spans {
		// Boundaries within ~0.35 s of truth (window-level detection,
		// frame-level trimming).
		tol := 350 * time.Millisecond
		if d := sp.Start - truth[k].Start; d < -tol || d > tol {
			t.Errorf("span %d start %v vs truth %v", k, sp.Start, truth[k].Start)
		}
		if d := sp.End - truth[k].End; d < -tol || d > tol {
			t.Errorf("span %d end %v vs truth %v", k, sp.End, truth[k].End)
		}
		if sp.Duration() <= 0 {
			t.Errorf("span %d empty", k)
		}
	}
}

func TestSegmenterQuietStreamHasNoSpans(t *testing.T) {
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.05)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 13), n)
	if err != nil {
		t.Fatal(err)
	}
	readings := synthLetterStream(n, nil, 4*time.Second, centres, sigmas, 14)
	spans := NewSegmenter().Segment(batchOf(readings), cal, 0, 4*time.Second)
	if len(spans) != 0 {
		t.Errorf("quiet stream produced %d spans: %v", len(spans), spans)
	}
}

func TestSegmenterTraces(t *testing.T) {
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 15), n)
	if err != nil {
		t.Fatal(err)
	}
	truth := []Span{{Start: time.Second, End: 2 * time.Second}}
	readings := synthLetterStream(n, truth, 3*time.Second, centres, sigmas, 16)
	seg := NewSegmenter()
	rms := seg.frameTrace(batchOf(readings), cal, 0, 3*time.Second)
	if len(rms) != 30 {
		t.Fatalf("frames = %d, want 30", len(rms))
	}
	// RMS during the stroke beats RMS before it (Fig. 9 middle).
	quiet := dsp.Mean(rms[2:8])
	active := dsp.Mean(rms[12:18])
	if active <= quiet*1.5 {
		t.Errorf("active RMS %v vs quiet %v", active, quiet)
	}
	stds := windowStds(rms, seg.WindowFrames)
	if len(stds) != 30-seg.WindowFrames+1 {
		t.Fatalf("std trace = %d", len(stds))
	}
	// std(RMS) small in the adjustment interval, large in the stroke
	// (Fig. 9 bottom), with the adaptive threshold between them.
	thre := seg.threshold(appendSorted(nil, stds))
	if thre <= 0 {
		t.Fatalf("threshold = %v", thre)
	}
	if stds[2] > thre {
		t.Errorf("quiet window std = %v above threshold %v", stds[2], thre)
	}
	peak := 0.0
	for _, s := range stds {
		peak = math.Max(peak, s)
	}
	if peak < thre*2 {
		t.Errorf("stroke window std peak = %v, want well above threshold %v", peak, thre)
	}
}

func TestSegmenterEmptyInput(t *testing.T) {
	cal := UniformCalibration(5)
	seg := NewSegmenter()
	if got := seg.Segment(batchOf(nil), cal, 0, time.Second); got != nil {
		t.Errorf("empty stream spans = %v", got)
	}
	if got := seg.Segment(batchOf(nil), cal, 0, 0); got != nil {
		t.Errorf("zero-length capture spans = %v", got)
	}
	if got := windowStds(seg.frameTrace(batchOf(nil), cal, 0, 100*time.Millisecond), seg.WindowFrames); got != nil {
		t.Errorf("short trace = %v", got)
	}
}

// windowStds is std(RMS) per sliding window position over a frame
// trace (Fig. 9's bottom panel); nil when the trace is shorter than one
// window.
func windowStds(rms []float64, w int) []float64 {
	if w <= 0 || len(rms) < w {
		return nil
	}
	out := make([]float64, len(rms)-w+1)
	for f := range out {
		out[f] = dsp.Std(rms[f : f+w])
	}
	return out
}
