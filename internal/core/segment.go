package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"rfipad/internal/dsp"
)

// Segmenter separates strokes from a continuous phase stream by
// detecting the "adjustment intervals" between them (§III-C1): the
// stream is cut into 100 ms frames, each frame's RMS phase disturbance
// is computed (Eq. 11), frames are grouped into 0.5 s windows, and a
// window is part of a stroke when the standard deviation of its frame
// RMS values exceeds a threshold (Eq. 12).
type Segmenter struct {
	// FrameLen is the frame length (default 100 ms, §III-C1).
	FrameLen time.Duration
	// WindowFrames is the number of frames per window (default 5,
	// i.e. 0.5 s).
	WindowFrames int
	// Threshold is `thre` of Eq. 12, in radians. The paper determines
	// it empirically for its deployment; a zero value selects the
	// adaptive default, which scales with the capture's own quiet
	// noise level (adaptiveK × the median window std, floored).
	Threshold float64
	// MergeGap joins detected spans separated by less than this gap.
	// A stroke's phase rotation stalls briefly where the reflected
	// path length is stationary (the symmetric trends of Fig. 8),
	// which can split one stroke in two; an adjustment interval is
	// much longer than this. Default 300 ms.
	MergeGap time.Duration
	// MinSpan drops detected spans shorter than this: the briefest
	// real stroke lasts several frames (the paper treats a 0.5 s
	// window as the detection unit), while interference pops last one
	// or two. Default 400 ms.
	MinSpan time.Duration
}

// Adaptive-threshold tuning: the quietest quarter of a capture's
// windows tracks the noise floor even when strokes cover most of the
// session; stroke windows stand an order of magnitude above it.
const (
	adaptiveK        = 3.0
	adaptiveQuantile = 0.25
	thresholdFloor   = 0.02
	// adaptivePeakFrac scales the threshold with the capture's own
	// dynamic range: transition ripple a few × above the noise floor
	// must not seed spans when real strokes stand 20–50× above it.
	adaptivePeakFrac = 0.25
)

// NewSegmenter returns a Segmenter with the paper's parameters and the
// adaptive threshold.
func NewSegmenter() *Segmenter {
	return &Segmenter{
		FrameLen:     100 * time.Millisecond,
		WindowFrames: 5,
		MergeGap:     300 * time.Millisecond,
		MinSpan:      400 * time.Millisecond,
	}
}

// Span is one detected stroke interval.
type Span struct {
	Start, End time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// frameRMS computes Eq. 11 per frame: the sum over tags of the RMS of
// the mean-subtracted phase samples in the frame.
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

// Segment detects the stroke spans in the readings between start and
// end. The returned spans have frame granularity.
func (g *Segmenter) Segment(readings []Reading, cal *Calibration, start, end time.Duration) []Span {
	return g.segmentRMS(g.frameRMS(readings, cal, start, end), start, nil)
}

// segScratch holds every buffer one segmentRMS evaluation needs, so a
// streaming caller polling once per frame allocates nothing in steady
// state. The zero value is ready; buffers grow to the high-water mark
// and stay there.
//
// Across calls the scratch also carries the incremental order-statistic
// state (stds, sortedStds, rms, sortedRMS, incr*): a streaming caller
// that knows which frames changed since its last poll pays only for the
// handful of sliding windows and frames those changes touch, instead of
// recomputing — and re-sorting — every window std and the whole
// frame-RMS trace per poll.
type segScratch struct {
	stds   []float64
	seeded []float64
	work   []float64 // quantile's selection workspace (NaN-free copy, partitioned in place)
	active []bool
	spans  []Span

	// sortedStds mirrors stds and sortedRMS mirrors rms as NaN-free
	// sorted multisets, maintained incrementally so the adaptive
	// threshold's quantile and peak and the bridge's quiet floor are
	// lookups instead of a copy + sort per poll. rms is the previous
	// call's frame-RMS trace: the caller's slice is updated in place
	// between polls, so the old values a changed frame must retract from
	// sortedRMS live here.
	sortedStds []float64
	rms        []float64
	sortedRMS  []float64
	incrValid  bool
	incrStart  time.Duration // rms[0]'s stream time when stds was built
}

// sortedInsert adds v to the sorted multiset s (NaNs are excluded, as
// the quantile path excludes them).
func sortedInsert(s []float64, v float64) []float64 {
	if math.IsNaN(v) {
		return s
	}
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// sortedRemove drops one occurrence of v from the sorted multiset s.
func sortedRemove(s []float64, v float64) []float64 {
	if math.IsNaN(v) {
		return s
	}
	i := sort.SearchFloat64s(s, v)
	if i < len(s) && s[i] == v {
		s = s[:i+copy(s[i:], s[i+1:])]
	}
	return s
}

// dropFront removes the first n values of vals, and each of them from
// vals' sorted multiset.
func dropFront(vals, sorted []float64, n int) ([]float64, []float64) {
	for _, v := range vals[:n] {
		sorted = sortedRemove(sorted, v)
	}
	return vals[:copy(vals, vals[n:])], sorted
}

// appendSorted appends x's NaN-free values to dst and sorts the result.
func appendSorted(dst, x []float64) []float64 {
	for _, v := range x {
		if !math.IsNaN(v) {
			dst = append(dst, v)
		}
	}
	slices.Sort(dst)
	return dst
}

// quantile computes the q-th quantile of x by selection over the
// scratch's workspace, bit-identical to dsp.NewCDF(x).Quantile(q)
// without the allocation or the full sort. NaNs are dropped as CDF does.
func (sc *segScratch) quantile(x []float64, q float64) float64 {
	sc.work = sc.work[:0]
	for _, v := range x {
		if !math.IsNaN(v) {
			sc.work = append(sc.work, v)
		}
	}
	return dsp.QuantileSelect(sc.work, q)
}

// segmentRMS runs the span-detection back half of Segment over an
// already-computed per-frame RMS trace starting at start. With a nil
// scratch it allocates fresh buffers (the batch path); the streaming
// recognizer passes its own scratch and must consume the returned spans
// before the next call, which reuses them.
func (g *Segmenter) segmentRMS(rms []float64, start time.Duration, sc *segScratch) []Span {
	return g.segmentRMSFrom(rms, start, sc, -1)
}

// segmentRMSFrom is segmentRMS with a change watermark: when
// changedFrom >= 0, frames [changedFrom, len(rms)) are the only ones
// whose rms values may differ from the previous call on the same
// scratch (start advances — history trims — are detected and handled
// by shifting). Only the sliding windows and frames those changes touch
// are updated, and the threshold's quantile/peak and the quiet floor
// read the incrementally maintained sorted multisets, so a steady-state
// poll costs a few window stds and sorted inserts instead of full
// re-sorts. changedFrom < 0 (or any inconsistency with the scratch's
// remembered geometry) falls back to a full rebuild; the detected spans
// are bit-identical either way.
func (g *Segmenter) segmentRMSFrom(rms []float64, start time.Duration, sc *segScratch, changedFrom int) []Span {
	if len(rms) == 0 {
		return nil
	}
	if sc == nil {
		sc = &segScratch{}
	}
	w := g.WindowFrames
	if w <= 0 {
		w = 5
	}

	// Sliding window std(RMS): frame f is "active" if any window
	// containing it exceeds the threshold. Sliding (rather than the
	// strictly tiled windows of the paper) removes the 0.5 s
	// quantization of stroke boundaries while keeping Eq. 12 intact.
	g.updateStds(rms, start, sc, changedFrom, w)
	stds := sc.stds

	var thre float64
	if g.Threshold > 0 {
		thre = g.Threshold
	} else {
		// The adaptive rule of effectiveThresholdScratch over the sorted
		// multiset: same multiset → same order statistics → same value.
		thre = adaptiveK * dsp.QuantileSorted(sc.sortedStds, adaptiveQuantile)
		if n := len(sc.sortedStds); n > 0 {
			if peak := sc.sortedStds[n-1]; peak*adaptivePeakFrac > thre {
				thre = peak * adaptivePeakFrac
			}
		}
		if !(thre > thresholdFloor) { // also catches NaN
			thre = thresholdFloor
		}
	}

	// Quiet-poll early exit: when no window std clears the threshold,
	// the seeding loop below cannot activate a frame, so the call would
	// fall through to the len(seeded) == 0 return anyway. The sorted
	// multiset's tail is the peak, making the common all-quiet poll a
	// comparison instead of a sweep.
	if n := len(sc.sortedStds); n == 0 || sc.sortedStds[n-1] <= thre {
		return nil
	}

	if cap(sc.active) < len(rms) {
		sc.active = make([]bool, len(rms))
	}
	active := sc.active[:len(rms)]
	for i := range active {
		active[i] = false
	}
	seeded := sc.seeded[:0]
	for f := 0; f+w <= len(rms); f++ {
		if stds[f] > thre {
			for k := f; k < f+w; k++ {
				if !active[k] {
					active[k] = true
					seeded = append(seeded, rms[k])
				}
			}
		}
	}
	sc.seeded = seeded

	if len(seeded) == 0 {
		return nil
	}

	// Bridging: Eq. 12's std(RMS) rule fires on transitions but can
	// dip mid-stroke when the disturbance plateaus. A frame whose RMS
	// sits above the midpoint between the quiet floor and the typical
	// active level is part of a stroke too.
	quiet := dsp.QuantileSorted(sc.sortedRMS, adaptiveQuantile)
	bridge := (quiet + sc.quantile(seeded, 0.5)) / 2
	for f, v := range rms {
		if v > bridge {
			active[f] = true
		}
	}

	// Trim the edges of each active run back to the bridge level: this
	// sharpens boundaries that the window-level rule blurs and discards
	// runs that were only transition ripple.
	spans := sc.spans[:0]
	f := 0
	for f < len(active) {
		if !active[f] {
			f++
			continue
		}
		lo := f
		for f < len(active) && active[f] {
			f++
		}
		hi := f // exclusive
		for lo < hi && rms[lo] <= bridge {
			lo++
		}
		for hi > lo && rms[hi-1] <= bridge {
			hi--
		}
		if hi <= lo {
			continue
		}
		spans = append(spans, Span{
			Start: start + time.Duration(lo)*g.FrameLen,
			End:   start + time.Duration(hi)*g.FrameLen,
		})
	}
	sc.spans = spans
	merged := g.merge(spans)
	if g.MinSpan <= 0 {
		return merged
	}
	kept := merged[:0]
	for _, sp := range merged {
		if sp.Duration() >= g.MinSpan {
			kept = append(kept, sp)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// updateStds brings the scratch's sliding-window stds and its copy of
// the frame-RMS trace, with their sorted multisets, up to date with
// rms. Each recomputed window std is a fresh dsp.Std over the current
// rms values — never a running update — so an incrementally maintained
// entry is bit-identical to a full rebuild's, and each multiset holds
// exactly the values a from-scratch sort would.
//
// The incremental path survives the two geometry changes a streaming
// caller produces: a history trim (start advanced by whole frames; the
// dropped frames and their windows leave both multisets, and the rest
// shift down unchanged because the surviving rms values are unchanged)
// and appended frames. A horizon regression (rms shorter than the
// scratch remembers, e.g. the poll after a flush pushed the horizon far
// ahead) forces a full rebuild, as does any call without a watermark.
func (g *Segmenter) updateStds(rms []float64, start time.Duration, sc *segScratch, changedFrom, w int) {
	nw := len(rms) - w + 1
	if nw < 0 {
		nw = 0
	}
	rebuild := changedFrom < 0 || !sc.incrValid || g.FrameLen <= 0
	if !rebuild && start != sc.incrStart {
		if start < sc.incrStart || (start-sc.incrStart)%g.FrameLen != 0 {
			rebuild = true
		} else if drop := int((start - sc.incrStart) / g.FrameLen); drop >= len(sc.stds) {
			rebuild = true
		} else {
			// drop < len(stds) <= len(sc.rms)-w+1: both lose a prefix.
			sc.stds, sc.sortedStds = dropFront(sc.stds, sc.sortedStds, drop)
			sc.rms, sc.sortedRMS = dropFront(sc.rms, sc.sortedRMS, drop)
		}
	}
	if !rebuild && len(rms) < len(sc.rms) {
		rebuild = true
	}
	keep := 0 // leading frames of sc.rms that already match rms
	if rebuild {
		sc.stds = sc.stds[:0]
		for f := 0; f < nw; f++ {
			sc.stds = append(sc.stds, dsp.Std(rms[f:f+w]))
		}
		sc.sortedStds = appendSorted(sc.sortedStds[:0], sc.stds)
		sc.sortedRMS = appendSorted(sc.sortedRMS[:0], rms)
	} else {
		// Windows touching a changed frame: [changedFrom-w+1, nw), plus
		// any windows beyond the previous high-water mark.
		lo := changedFrom - w + 1
		if lo < 0 {
			lo = 0
		}
		if lo > len(sc.stds) {
			lo = len(sc.stds)
		}
		for f := lo; f < nw; f++ {
			v := dsp.Std(rms[f : f+w])
			if f < len(sc.stds) {
				sc.sortedStds = sortedRemove(sc.sortedStds, sc.stds[f])
				sc.stds[f] = v
			} else {
				sc.stds = append(sc.stds, v)
			}
			sc.sortedStds = sortedInsert(sc.sortedStds, v)
		}
		// Frames from the watermark on, plus any beyond the previous
		// trace's end.
		keep = min(changedFrom, len(sc.rms))
		for f := keep; f < len(rms); f++ {
			if f < len(sc.rms) {
				sc.sortedRMS = sortedRemove(sc.sortedRMS, sc.rms[f])
			}
			sc.sortedRMS = sortedInsert(sc.sortedRMS, rms[f])
		}
	}
	sc.rms = append(sc.rms[:keep], rms[keep:]...)
	sc.incrValid = true
	sc.incrStart = start
}

// merge joins spans closer than MergeGap.
func (g *Segmenter) merge(spans []Span) []Span {
	if len(spans) < 2 || g.MergeGap <= 0 {
		return spans
	}
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.Start-last.End <= g.MergeGap {
			last.End = sp.End
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// effectiveThreshold resolves Eq. 12's `thre`: the configured constant
// when set, otherwise the adaptive default derived from this capture's
// window stds.
func (g *Segmenter) effectiveThreshold(stds []float64) float64 {
	return g.effectiveThresholdScratch(stds, &segScratch{})
}

// effectiveThresholdScratch is effectiveThreshold using the caller's
// quantile workspace.
func (g *Segmenter) effectiveThresholdScratch(stds []float64, sc *segScratch) float64 {
	if g.Threshold > 0 {
		return g.Threshold
	}
	thre := adaptiveK * sc.quantile(stds, adaptiveQuantile)
	if _, peak := dsp.MinMax(stds); peak*adaptivePeakFrac > thre {
		thre = peak * adaptivePeakFrac
	}
	if !(thre > thresholdFloor) { // also catches NaN
		thre = thresholdFloor
	}
	return thre
}

// EffectiveThreshold reports the Eq. 12 threshold that Segment would
// use on this capture — diagnostic for tests and figure benches.
func (g *Segmenter) EffectiveThreshold(readings []Reading, cal *Calibration, start, end time.Duration) float64 {
	return g.effectiveThreshold(g.WindowStdTrace(readings, cal, start, end))
}

// FrameRMSTrace exposes the per-frame RMS values (Fig. 9's middle
// panel) for diagnostics and the figure benchmarks.
func (g *Segmenter) FrameRMSTrace(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	return g.frameRMS(readings, cal, start, end)
}

// WindowStdTrace exposes std(RMS) per sliding window position (Fig. 9's
// bottom panel).
func (g *Segmenter) WindowStdTrace(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	rms := g.frameRMS(readings, cal, start, end)
	w := g.WindowFrames
	if w <= 0 || len(rms) < w {
		return nil
	}
	out := make([]float64, len(rms)-w+1)
	for f := range out {
		out[f] = dsp.Std(rms[f : f+w])
	}
	return out
}
