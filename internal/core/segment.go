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
}

const (
	// mergeGap joins detected spans separated by less than this gap.
	// A stroke's phase rotation stalls briefly where the reflected
	// path length is stationary (the symmetric trends of Fig. 8),
	// which can split one stroke in two; an adjustment interval is
	// much longer than this.
	mergeGap = 300 * time.Millisecond
	// minSpan drops detected spans shorter than this: the briefest
	// real stroke lasts several frames (the paper treats a 0.5 s
	// window as the detection unit), while interference pops last one
	// or two.
	minSpan = 400 * time.Millisecond
)

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
	}
}

// Span is one detected stroke interval.
type Span struct {
	Start, End time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Segment detects the stroke spans in the capture's readings between
// start and end. The returned spans have frame granularity. The
// capture is only read.
func (g *Segmenter) Segment(capture *ReadingBatch, cal *Calibration, start, end time.Duration) []Span {
	return g.segmentRMS(g.frameTrace(capture, cal, start, end), start, nil)
}

// frameTrace computes Eq. 11 for every complete frame in [start, end)
// with the frame cache a streaming recognizer keeps: the readings in
// the range fold into a cache anchored at start, in arrival order, and
// the trace is read back at end. Offline and streaming segmentation
// therefore share one frame statistic.
func (g *Segmenter) frameTrace(capture *ReadingBatch, cal *Calibration, start, end time.Duration) []float64 {
	w := capture.Window(start, end)
	var c segCache
	c.reset(g.FrameLen, cal)
	c.origin = start
	c.addColumns(w.Times, w.Phases, w.TagIndices)
	return c.values(end)
}

// segScratch holds every buffer one segmentRMS evaluation needs, so a
// streaming caller polling once per frame allocates nothing in steady
// state. The zero value is ready; buffers grow to the high-water mark
// and stay there.
//
// Across calls the scratch also carries the incremental order-statistic
// state (stds, sortedStds, rms, sortedRMS, cover, sortedSeeded, incr*,
// seedThre): a streaming caller that knows which frames changed since
// its last poll pays only for the handful of sliding windows and frames
// those changes touch, instead of recomputing — and re-sorting — every
// window std, the whole frame-RMS trace and the seeded frames per poll.
type segScratch struct {
	stds  []float64
	spans []Span

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

	// cover[k] counts the windows over stds whose std exceeds seedThre
	// and that contain frame k; a frame with a non-zero count is seeded.
	// sortedSeeded is the NaN-free sorted multiset of rms over the
	// seeded frames, so the bridge's active level is a lookup too.
	cover        []int32
	sortedSeeded []float64
	seedThre     float64

	incrValid bool
	incrStart time.Duration // rms[0]'s stream time when stds was built
}

// reset empties the scratch for a new stream, keeping only its
// buffers' capacity. The incremental state goes back to invalid, so the
// first poll rebuilds it.
func (sc *segScratch) reset() {
	*sc = segScratch{stds: sc.stds[:0], spans: sc.spans[:0],
		sortedStds: sc.sortedStds[:0], rms: sc.rms[:0], sortedRMS: sc.sortedRMS[:0],
		cover: sc.cover[:0], sortedSeeded: sc.sortedSeeded[:0]}
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
// vals' sorted multiset. The dropped values are sorted in place, since
// they are discarded next, and leave the multiset in one merge pass: a
// binary search finds each one's first remaining occurrence, and each
// run of kept values between two of them moves down once. A trim of
// one frame costs one search and one move, like a single removal; a
// letter trim of dozens no longer moves the tail once per frame.
func dropFront(vals, sorted []float64, n int) ([]float64, []float64) {
	drop := vals[:n]
	slices.Sort(drop) // NaNs first; the multiset holds none
	kept, i := 0, 0   // sorted[:kept] is final; sorted[i:] is unread
	for _, v := range drop {
		if math.IsNaN(v) {
			continue
		}
		j := i + sort.SearchFloat64s(sorted[i:], v)
		if j == len(sorted) || sorted[j] != v {
			continue
		}
		if kept == i {
			kept = j // nothing removed yet: the run stays in place
		} else {
			kept += copy(sorted[kept:], sorted[i:j])
		}
		i = j + 1
	}
	sorted = sorted[:kept+copy(sorted[kept:], sorted[i:])]
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

// segmentRMS runs the span-detection back half of Segment over an
// already-computed per-frame RMS trace starting at start, and returns
// every span. With a nil scratch it allocates fresh buffers (the batch
// path); the streaming recognizer passes its own scratch and must
// consume the returned spans before the next call, which reuses them.
func (g *Segmenter) segmentRMS(rms []float64, start time.Duration, sc *segScratch) []Span {
	return g.segmentRMSFrom(rms, start, sc, -1, 0)
}

// segmentRMSFrom is segmentRMS with a change watermark: when
// changedFrom >= 0, frames [changedFrom, len(rms)) are the only ones
// whose rms values may differ from the previous call on the same
// scratch (start advances — history trims — are detected and handled
// by shifting). Only the sliding windows and frames those changes touch
// are updated, and the threshold's quantile/peak, the quiet floor and
// the seeded frames' median read incrementally maintained sorted
// multisets, so a steady-state poll costs a few window stds and sorted
// inserts plus one linear pass that emits the spans. changedFrom < 0
// (or any inconsistency with the scratch's remembered geometry) falls
// back to a full rebuild; the detected spans are bit-identical either
// way.
//
// from > 0 resumes the span pass for a caller that needs only the spans
// ending after frame from. The pass starts at the latest stretch, before
// from, of floor(mergeGap/FrameLen)+1 frames that are neither seeded
// nor above the bridge: the spans on either side of such a stretch lie
// more than mergeGap apart and never merge. So the result is the full
// pass's spans minus a prefix, and every span left out ends before
// frame from. from = 0 runs the full pass.
func (g *Segmenter) segmentRMSFrom(rms []float64, start time.Duration, sc *segScratch, changedFrom, from int) []Span {
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
	first := g.updateStds(rms, start, sc, changedFrom, w)
	thre := g.threshold(sc.sortedStds)
	sc.reseed(first, thre, w)

	// Quiet-poll early exit: when no window std clears the threshold, no
	// frame is seeded and no span can start. The sorted multiset's tail
	// is the peak, making the common all-quiet poll a comparison.
	if n := len(sc.sortedStds); n == 0 || sc.sortedStds[n-1] <= thre {
		return nil
	}

	// Bridging: Eq. 12's std(RMS) rule fires on transitions but can
	// dip mid-stroke when the disturbance plateaus. A frame whose RMS
	// sits above the midpoint between the quiet floor and the typical
	// seeded level is part of a stroke too.
	quiet := dsp.QuantileSorted(sc.sortedRMS, adaptiveQuantile)
	bridge := (quiet + dsp.QuantileSorted(sc.sortedSeeded, 0.5)) / 2

	// One pass finds each run of frames that are seeded or above the
	// bridge, then trims the run's edges back to the bridge level: this
	// sharpens boundaries that the window-level rule blurs and discards
	// runs that were only transition ripple. A resumed pass starts at
	// the quiet stretch before from.
	cover := sc.cover
	f := 0
	if from > 0 {
		need, run := int(mergeGap/g.FrameLen)+1, 0
		for k := min(from, len(rms)) - 1; k >= 0; k-- {
			if cover[k] > 0 || rms[k] > bridge {
				run = 0
			} else if run++; run == need {
				f = k
				break
			}
		}
	}
	spans := sc.spans[:0]
	for f < len(rms) {
		if cover[f] == 0 && !(rms[f] > bridge) {
			f++
			continue
		}
		lo := f
		for f < len(rms) && (cover[f] > 0 || rms[f] > bridge) {
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
	merged := merge(spans)
	kept := merged[:0]
	for _, sp := range merged {
		if sp.Duration() >= minSpan {
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
// rms, and retracts from the seeded cover, at the threshold it was
// built with, every window it drops or recomputes. It returns lo, the
// first recomputed window: windows [0, lo) kept their std, and reseed
// re-asserts the rest. Each recomputed window std is a fresh dsp.Std
// over the current rms values — never a running update — so an
// incrementally maintained entry is bit-identical to a full rebuild's,
// and each multiset holds exactly the values a from-scratch sort would.
//
// The incremental path survives the two geometry changes a streaming
// caller produces: a history trim (start advanced by whole frames; the
// dropped frames and their windows leave every multiset, and the rest
// shift down unchanged because the surviving rms values are unchanged)
// and appended frames. A horizon regression (rms shorter than the
// scratch remembers, e.g. the poll after a flush pushed the horizon far
// ahead) forces a full rebuild, as does any call without a watermark.
func (g *Segmenter) updateStds(rms []float64, start time.Duration, sc *segScratch, changedFrom, w int) (lo int) {
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
			// drop < len(stds) <= len(sc.rms)-w+1: every array loses a
			// prefix, and the dropped frames are covered only by dropped
			// windows.
			for f, v := range sc.stds[:drop] {
				if v > sc.seedThre {
					sc.unseed(f, w)
				}
			}
			sc.cover = sc.cover[:copy(sc.cover, sc.cover[drop:])]
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
		sc.cover, sc.sortedSeeded = sc.cover[:0], sc.sortedSeeded[:0]
	} else {
		// Windows touching a changed frame: [changedFrom-w+1, nw), plus
		// any windows beyond the previous high-water mark. Every window
		// covering a changed frame is among them, so the seeded multiset
		// holds no changed frame's old value once they are retracted.
		lo = min(max(changedFrom-w+1, 0), len(sc.stds))
		for f := lo; f < nw; f++ {
			v := dsp.Std(rms[f : f+w])
			if f < len(sc.stds) {
				if sc.stds[f] > sc.seedThre {
					sc.unseed(f, w)
				}
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
	sc.cover = append(sc.cover, make([]int32, len(rms)-len(sc.cover))...)
	sc.incrValid = true
	sc.incrStart = start
	return lo
}

// reseed brings the seeded cover from the threshold it was built with
// to thre, after updateStds retracted windows [lo, len(stds)): each
// window [0, lo) kept its std, so it moves only if thre crossed it, and
// each window from lo on is asserted afresh.
func (sc *segScratch) reseed(lo int, thre float64, w int) {
	if old := sc.seedThre; thre != old {
		for f, v := range sc.stds[:lo] {
			if was, is := v > old, v > thre; is && !was {
				sc.seed(f, w)
			} else if was && !is {
				sc.unseed(f, w)
			}
		}
	}
	for f := lo; f < len(sc.stds); f++ {
		if sc.stds[f] > thre {
			sc.seed(f, w)
		}
	}
	sc.seedThre = thre
}

// seed asserts window f: frames it is the first to cover enter the
// seeded multiset.
func (sc *segScratch) seed(f, w int) {
	for k := f; k < f+w; k++ {
		if sc.cover[k] == 0 {
			sc.sortedSeeded = sortedInsert(sc.sortedSeeded, sc.rms[k])
		}
		sc.cover[k]++
	}
}

// unseed retracts window f: frames it was the last to cover leave the
// seeded multiset, with the value sc.rms holds for them.
func (sc *segScratch) unseed(f, w int) {
	for k := f; k < f+w; k++ {
		if sc.cover[k]--; sc.cover[k] == 0 {
			sc.sortedSeeded = sortedRemove(sc.sortedSeeded, sc.rms[k])
		}
	}
}

// merge joins spans closer than mergeGap.
func merge(spans []Span) []Span {
	if len(spans) < 2 {
		return spans
	}
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.Start-last.End <= mergeGap {
			last.End = sp.End
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// threshold resolves Eq. 12's `thre` from the NaN-free sorted multiset
// of a capture's window stds: the configured constant when set,
// otherwise the adaptive default derived from the stds.
func (g *Segmenter) threshold(sortedStds []float64) float64 {
	if g.Threshold > 0 {
		return g.Threshold
	}
	thre := adaptiveK * dsp.QuantileSorted(sortedStds, adaptiveQuantile)
	if n := len(sortedStds); n > 0 {
		if peak := sortedStds[n-1]; peak*adaptivePeakFrac > thre {
			thre = peak * adaptivePeakFrac
		}
	}
	if !(thre > thresholdFloor) { // also catches NaN
		thre = thresholdFloor
	}
	return thre
}
