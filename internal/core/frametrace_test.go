package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rfipad/internal/dsp"
)

// frameRMS is the reference Eq. 11, computed batch-wise: per frame, the
// sum over tags of the RMS of the mean-subtracted phase samples in the
// frame, from per-(frame, tag) sample slices. The frame-cache tests
// compare segCache's trace against it.
func (g *Segmenter) frameRMS(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	nFrames := int((end - start) / g.FrameLen)
	if nFrames <= 0 {
		return nil
	}
	n := cal.NumTags()
	// Collect θ' samples per (frame, tag).
	perFrame := make([][][]float64, nFrames)
	for i := range perFrame {
		perFrame[i] = make([][]float64, n)
	}
	for _, r := range readings {
		if r.Time < start || r.Time >= end || r.TagIndex < 0 || r.TagIndex >= n {
			continue
		}
		if cal.IsDead(r.TagIndex) {
			// Sporadic reads from an uncalibrated tag would feed raw
			// (unsuppressed) phases into the frame statistic.
			continue
		}
		f := int((r.Time - start) / g.FrameLen)
		if f >= nFrames {
			continue
		}
		// p_ij: the diversity-suppressed phase, as a signed excursion
		// around the tag's static centre.
		p := dsp.WrapSigned(r.Phase - cal.MeanPhase[r.TagIndex])
		perFrame[f][r.TagIndex] = append(perFrame[f][r.TagIndex], p)
	}
	// Eq. 11 runs over the diversity-suppressed streams: each tag's
	// contribution is normalized by its relative deviation bias, so a
	// tag sitting in heavy multipath cannot drown the frame statistic
	// (with UniformCalibration all factors are 1 — the unsuppressed
	// arm of Fig. 16).
	// The factor only attenuates (≤1): a tag noisier than typical is
	// damped toward the typical level; quiet tags pass unchanged.
	typBias := dsp.Median(cal.Bias)
	factor := make([]float64, n)
	for i := range factor {
		f := 1.0
		if cal.Bias[i] > 0 && typBias > 0 && cal.Bias[i] > typBias {
			f = typBias / cal.Bias[i]
			if f < 1.0/32 {
				f = 1.0 / 32
			}
		}
		factor[i] = f
	}
	out := make([]float64, nFrames)
	for f := range perFrame {
		var sum float64
		for i := 0; i < n; i++ {
			if len(perFrame[f][i]) == 0 {
				continue
			}
			sum += factor[i] * dsp.RMS(perFrame[f][i])
		}
		out[f] = sum
	}
	return out
}

// sameBits reports the first frame where two traces differ bit for bit,
// or -1 when they are identical (a length mismatch differs at the
// shorter length).
func sameBits(got, want []float64) int {
	for f := range min(len(got), len(want)) {
		if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
			return f
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// shuffledWithDuplicates returns a shuffled copy of readings with 10 %
// of them delivered twice, as a replaying transport might.
func shuffledWithDuplicates(readings []Reading, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(readings)
	for range len(readings) / 10 {
		out = append(out, readings[rng.Intn(len(readings))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestFrameTraceMatchesReference checks that offline segmentation's
// Eq. 11, the frame cache folded once over a capture, equals the
// batch reference bit for bit, and that Segment's spans equal the
// spans of the reference trace: on time-sorted captures and on
// shuffled copies with 10 % duplicates, with traces starting at 0, on
// a later frame boundary, and 37 ms off a frame, under a calibration
// with every tag live and one with dead tags that still report.
func TestFrameTraceMatchesReference(t *testing.T) {
	const n = 25
	centres, sigmas := evenCentres(n), constSigmas(n, 0.04)
	static := synthStatic(n, 60, centres, sigmas, 41)
	dead := []int{4, 13, 21}
	var degraded []Reading
	for _, rd := range static {
		if !slices.Contains(dead, rd.TagIndex) || rd.Time < 100*time.Millisecond {
			degraded = append(degraded, rd)
		}
	}
	deadCal, err := Calibrate(degraded, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range dead {
		if !deadCal.IsDead(i) {
			t.Fatalf("tag %d is not dead in the degraded calibration", i)
		}
	}

	multiCal, multi := multiLetterCapture(t)
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	letter := synthLetterStream(n, []Span{{ms(1200), ms(2300)}, {ms(3100), ms(4400)}}, 6*time.Second, centres, sigmas, 42)
	cases := []struct {
		name     string
		cal      *Calibration
		readings []Reading
		end      time.Duration
	}{
		{"multi-letter", multiCal, multi, 34 * time.Second},
		{"multi-letter/dead-tags", deadCal, multi, 34 * time.Second},
		{"letter", multiCal, letter, 6 * time.Second},
		{"letter/dead-tags", deadCal, letter, 6*time.Second - ms(13)},
	}
	seg := NewSegmenter()
	compared, withSpans := 0, 0
	for k, c := range cases {
		orders := [2][]Reading{c.readings, shuffledWithDuplicates(c.readings, int64(k))}
		for o, readings := range orders {
			order := [2]string{"sorted", "shuffled"}[o]
			for _, start := range []time.Duration{0, 2 * time.Second, 2*time.Second + ms(37)} {
				got := seg.frameTrace(batchOf(readings), c.cal, start, c.end)
				want := seg.frameRMS(readings, c.cal, start, c.end)
				if len(want) != int((c.end-start)/seg.FrameLen) || slices.Max(want) <= 0 {
					t.Fatalf("%s/%s from %v: reference trace of %d frames, peak %v", c.name, order, start, len(want), slices.Max(want))
				}
				if f := sameBits(got, want); f >= 0 {
					t.Fatalf("%s/%s from %v: trace differs from the reference at frame %d of %d/%d",
						c.name, order, start, f, len(got), len(want))
				}
				spans := seg.Segment(batchOf(readings), c.cal, start, c.end)
				if ref := seg.segmentRMS(want, start, nil); !slices.Equal(spans, ref) {
					t.Fatalf("%s/%s from %v: spans %v, reference spans %v", c.name, order, start, spans, ref)
				}
				compared++
				if len(spans) > 0 {
					withSpans++
				}
			}
		}
	}
	if withSpans < compared/2 {
		t.Errorf("only %d of %d comparisons found strokes", withSpans, compared)
	}
}

// TestFrameTraceSkipsNonFiniteCells pins where the frame cache departs
// from the batch reference: a frame×tag cell whose every phase is NaN
// or ±Inf adds nothing to its frame, as in a streaming recognizer, so
// the trace equals the reference over the capture without that cell.
// The reference turns such a frame into NaN. A cell with one NaN among
// finite phases is the same on both: the NaN is skipped.
func TestFrameTraceSkipsNonFiniteCells(t *testing.T) {
	const n = 25
	centres, sigmas := evenCentres(n), constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 43), n)
	if err != nil {
		t.Fatal(err)
	}
	readings := synthLetterStream(n, []Span{{Start: time.Second, End: 2 * time.Second}}, 3*time.Second, centres, sigmas, 44)
	seg := NewSegmenter()
	frameOf := func(rd Reading) int { return int(rd.Time / seg.FrameLen) }
	const badFrame, badTag, mixedFrame, mixedTag = 12, 7, 15, 9
	var without []Reading
	bad, mixed := 0, 0
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range readings {
		rd := &readings[i]
		switch {
		case frameOf(*rd) == badFrame && rd.TagIndex == badTag:
			rd.Phase = nonFinite[bad%len(nonFinite)]
			bad++
			continue
		case frameOf(*rd) == mixedFrame && rd.TagIndex == mixedTag && mixed == 0:
			rd.Phase = math.NaN()
			mixed++
		}
		without = append(without, *rd)
	}
	if bad < len(nonFinite) || mixed == 0 {
		t.Fatalf("capture has %d readings in the non-finite cell and %d in the mixed one", bad, mixed)
	}

	got := seg.frameTrace(batchOf(readings), cal, 0, 3*time.Second)
	if f := sameBits(got, seg.frameRMS(without, cal, 0, 3*time.Second)); f >= 0 {
		t.Fatalf("trace differs at frame %d from the reference over the capture without the non-finite cell", f)
	}
	ref := seg.frameRMS(readings, cal, 0, 3*time.Second)
	for f, v := range ref {
		if math.IsNaN(v) != (f == badFrame) {
			t.Errorf("reference frame %d = %v", f, v)
		}
		if f != badFrame && math.Float64bits(v) != math.Float64bits(got[f]) {
			t.Errorf("frame %d: trace %v, reference %v", f, got[f], v)
		}
	}
}

// FuzzFrameTraceMatchesReference compares the frame cache's trace with
// the batch reference, bit for bit, on captures decoded from the input:
// a frame length, a calibration (tag count, dead tags, mean phases and
// biases), a trace range whose start may be negative or off the frame
// grid, and readings in any order with any timestamps (duplicates and
// readings outside the range included), out-of-range tags, and finite
// phases far enough from the mean to take every wrap arm.
func FuzzFrameTraceMatchesReference(f *testing.F) {
	f.Add([]byte{9, 5, 0x12, 0, 37, 200, 10, 20, 30, 40, 50, 1, 2, 3, 4, 5,
		0, 10, 0, 1, 0, 0, 20, 1, 1, 0, 0, 30, 2, 2, 0, 0, 40, 3, 3, 0, 1, 10, 0, 4, 0,
		1, 0, 5, 128, 0, 0, 15, 255, 127, 255, 2, 0, 6, 0x80, 0})
	f.Add([]byte{0, 7, 0x05, 255, 0, 40, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 0, 2, 0, 0, 0, 5, 3, 0,
		0x10, 0, 6, 0x7f, 0xff, 0x10, 0, 7, 0x80, 0x01})
	f.Add([]byte{19, 3, 0, 0, 0, 255, 30, 60, 90, 0, 0, 0,
		0, 50, 0, 0, 100, 0, 50, 1, 0, 100, 0, 50, 2, 0, 100, 0, 50, 0, 0, 100})
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
		seg.FrameLen = time.Duration(next()%20+1) * 10 * time.Millisecond
		n := int(next()%8) + 1
		deadMask := next()
		start := time.Duration(int8(next())) * 7 * time.Millisecond
		end := start + time.Duration(next())*25*time.Millisecond
		cal := UniformCalibration(n)
		for i := range n {
			cal.MeanPhase[i] = float64(next()) / 255 * 2 * math.Pi
			cal.Bias[i] = float64(next()) / 64
			cal.Dead[i] = deadMask>>i&1 == 1
		}
		var readings []Reading
		for len(data) >= 5 {
			rd := Reading{
				Time:     start + time.Duration(int16(binary.BigEndian.Uint16(data[0:2])))*time.Millisecond,
				TagIndex: int(int8(data[2])) % (n + 3),
				// ±32.8 rad around zero: past ±4π, so the cache's wide
				// wrap arms are exercised too.
				Phase: float64(int16(binary.BigEndian.Uint16(data[3:5]))) / 1000,
			}
			readings = append(readings, rd)
			data = data[5:]
		}
		got := seg.frameTrace(batchOf(readings), cal, start, end)
		want := seg.frameRMS(readings, cal, start, end)
		if f := sameBits(got, want); f >= 0 {
			t.Fatalf("%d readings, %d tags, frames of %v from %v to %v: trace differs from the reference at frame %d (%d/%d frames)",
				len(readings), n, seg.FrameLen, start, end, f, len(got), len(want))
		}
	})
}
