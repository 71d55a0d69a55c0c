package dsp

import (
	"math"
	"time"
)

// TroughScratch holds FindTrough's workspaces. The zero value is ready;
// a scratch is not safe for concurrent use.
type TroughScratch struct {
	smooth, work []float64
}

// Trough describes one detected local minimum in a timed series.
type Trough struct {
	T     time.Duration // time of the minimum
	V     float64       // value at the minimum
	Depth float64       // how far the minimum sits below the series median
}

// FindTrough implements the two-staged RSS trough estimation from
// Section III-B of the paper.
//
// Stage 1 (coarse): the series is smoothed with a centred moving average
// and the global minimum located.
// Stage 2 (refine): within a refinement radius around the coarse
// minimum, the trough time is re-estimated on the raw samples as the
// depth-weighted centroid of the below-median excursion, which is robust
// to flat-bottomed troughs and single-sample noise spikes.
//
// The series arrives as two parallel columns: times[i] is when vals[i]
// was measured. ok is false when the series has no significant trough —
// i.e. the excursion below the median is smaller than minDepth (same
// units as the samples; for RSS, dB). sc holds the smoothed series and
// the median's workspace, so a caller that reuses it allocates nothing
// once its buffers reach the longest series.
func FindTrough(sc *TroughScratch, times []time.Duration, vals []float64, smoothWidth int, minDepth float64) (Trough, bool) {
	if len(vals) < 3 {
		return Trough{}, false
	}
	sc.smooth = MovingAverageInto(sc.smooth, vals, smoothWidth)
	smooth := sc.smooth
	// The median of the NaN-free samples, by selection: for finite
	// samples QuantileSelect(·, 0.5) is bit-identical to Median.
	sc.work = sc.work[:0]
	for _, v := range vals {
		if !math.IsNaN(v) {
			sc.work = append(sc.work, v)
		}
	}
	med := QuantileSelect(sc.work, 0.5)

	// Stage 1: coarse global minimum of the smoothed series.
	minIdx, minVal := -1, math.Inf(1)
	for i, v := range smooth {
		if !math.IsNaN(v) && v < minVal {
			minVal, minIdx = v, i
		}
	}
	if minIdx < 0 {
		return Trough{}, false
	}
	depth := med - minVal
	if math.IsNaN(depth) || depth < minDepth {
		return Trough{}, false
	}

	// Stage 2: expand from the coarse minimum while samples remain below
	// the median, then take the depth-weighted time centroid.
	lo := minIdx
	for lo > 0 && smooth[lo-1] < med {
		lo--
	}
	hi := minIdx
	for hi < len(smooth)-1 && smooth[hi+1] < med {
		hi++
	}
	var wSum, tSum float64
	for i := lo; i <= hi; i++ {
		w := med - vals[i]
		if w <= 0 || math.IsNaN(w) {
			continue
		}
		wSum += w
		tSum += w * float64(times[i])
	}
	t := times[minIdx]
	if wSum > 0 {
		t = time.Duration(tSum / wSum)
	}
	return Trough{T: t, V: vals[minIdx], Depth: depth}, true
}
