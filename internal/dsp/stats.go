package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, ignoring NaNs. It returns NaN
// for an empty (or all-NaN) input.
func Mean(x []float64) float64 {
	var sum float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Std returns the population standard deviation of x, ignoring NaNs.
// It returns NaN for an empty input and 0 for a single sample.
func Std(x []float64) float64 {
	m := Mean(x)
	if math.IsNaN(m) {
		return math.NaN()
	}
	var ss float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		d := v - m
		ss += d * d
		n++
	}
	return math.Sqrt(ss / float64(n))
}

// RMS returns the root mean square of x, ignoring NaNs; NaN for empty
// input. This is the per-frame magnitude used by the stroke segmenter
// (Eq. 11).
func RMS(x []float64) float64 {
	var ss float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		ss += v * v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(ss / float64(n))
}

// CircularMean returns the mean angle of x (radians) computed on the
// unit circle, wrapped onto [0, 2π). Tag phases cluster around a central
// value that may straddle the 0/2π boundary, so a plain arithmetic mean
// would be biased; the calibrator uses this instead. NaN for empty input.
func CircularMean(x []float64) float64 {
	var s, c float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		s += math.Sin(v)
		c += math.Cos(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return Wrap(math.Atan2(s, c))
}

// CircularStd returns the circular standard deviation of the angles x
// (radians): sqrt(-2 ln R) where R is the mean resultant length. It is 0
// for perfectly concentrated samples and grows without bound as the
// samples spread over the circle. NaN for empty input.
func CircularStd(x []float64) float64 {
	var s, c float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		s += math.Sin(v)
		c += math.Cos(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	r := math.Hypot(s, c) / float64(n)
	if r <= 0 {
		return math.Inf(1)
	}
	if r >= 1 {
		return 0
	}
	return math.Sqrt(-2 * math.Log(r))
}

// CircularMeanStd returns CircularMean(x) and CircularStd(x) from one
// pass of Σsin and Σcos, bit for bit. NaN for both on empty input.
func CircularMeanStd(x []float64) (mean, std float64) {
	var s, c float64
	var n int
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		s += math.Sin(v)
		c += math.Cos(v)
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean = Wrap(math.Atan2(s, c))
	switch r := math.Hypot(s, c) / float64(n); {
	case r <= 0:
		return mean, math.Inf(1)
	case r >= 1:
		return mean, 0
	default:
		return mean, math.Sqrt(-2 * math.Log(r))
	}
}

// growFloats returns a slice of exactly length n, reusing buf's backing
// array when its capacity allows — the shared idiom behind the *Into
// scratch-buffer variants.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// MovingAverage smooths x with a centred window of the given odd width.
// Edges use the available shrunken window. width <= 1 returns a copy.
func MovingAverage(x []float64, width int) []float64 {
	return MovingAverageInto(make([]float64, len(x)), x, width)
}

// MovingAverageInto is MovingAverage writing into dst, which is grown as
// needed and returned with length len(x). dst must not alias x.
func MovingAverageInto(dst, x []float64, width int) []float64 {
	out := growFloats(dst, len(x))
	if width <= 1 {
		copy(out, x)
		return out
	}
	half := width / 2
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(x) {
			hi = len(x)
		}
		out[i] = Mean(x[lo:hi])
	}
	return out
}

// Median returns the median of x, ignoring NaNs; NaN for empty input.
func Median(x []float64) float64 {
	vals := make([]float64, 0, len(x))
	for _, v := range x {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// MinMax returns the minimum and maximum of x, ignoring NaNs. For an
// empty input both are NaN.
func MinMax(x []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(lo) || v < lo {
			lo = v
		}
		if math.IsNaN(hi) || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Normalize rescales x linearly so its non-NaN values span [0,1]. A
// constant input maps to all zeros. NaNs are preserved.
func Normalize(x []float64) []float64 {
	lo, hi := MinMax(x)
	out := make([]float64, len(x))
	span := hi - lo
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			out[i] = v
		case span == 0 || math.IsNaN(span):
			out[i] = 0
		default:
			out[i] = (v - lo) / span
		}
	}
	return out
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied; NaNs dropped).
func NewCDF(samples []float64) *CDF {
	vals := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	return &CDF{sorted: vals}
}

// P returns the fraction of samples <= v, in [0,1]. Zero samples yields 0.
func (c *CDF) P(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1], clamped) of the
// samples; NaN if there are none.
func (c *CDF) Quantile(q float64) float64 { return QuantileSorted(c.sorted, q) }

// QuantileSorted returns the q-th quantile (q in [0,1], clamped) of an
// ascending, NaN-free sample slice — the allocation-free core of
// CDF.Quantile for callers that maintain their own sorted scratch.
// NaN if the slice is empty.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i, frac, between := quantileRank(len(sorted), q)
	if !between {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// QuantileSelect returns what QuantileSorted would return for a sorted
// copy of x — bit for bit, through the same interpolation — by
// selection instead of a full sort: the i-th smallest value, plus the
// minimum of the partition above it when q falls between two order
// statistics. Expected O(len(x)) with no allocation; x is reordered in
// place and must be NaN-free. NaN if x is empty.
func QuantileSelect(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	i, frac, between := quantileRank(len(x), q)
	lo := selectKth(x, i)
	if !between {
		return lo
	}
	hi := x[i+1]
	for _, v := range x[i+2:] {
		if v < hi {
			hi = v
		}
	}
	return lo*(1-frac) + hi*frac
}

// quantileRank is the rank arithmetic behind QuantileSorted and
// QuantileSelect for n > 0 ascending values: the quantile is the i-th
// smallest value, or — when between — the i-th and (i+1)-th smallest
// interpolated by frac.
func quantileRank(n int, q float64) (i int, frac float64, between bool) {
	if q <= 0 {
		return 0, 0, false
	}
	if q >= 1 {
		return n - 1, 0, false
	}
	pos := q * float64(n-1)
	i = int(pos)
	if i+1 >= n {
		return n - 1, 0, false
	}
	return i, pos - float64(i), true
}

// selectKth partially orders x (NaN-free) so that x[k] holds its k-th
// smallest value, with x[:k] <= x[k] <= x[k+1:], and returns x[k].
// Hoare partitioning around a median-of-three pivot (Wirth's FIND):
// equal keys split evenly, so heavy ties and presorted input stay
// linear.
func selectKth(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if x[mid] < x[lo] {
			x[mid], x[lo] = x[lo], x[mid]
		}
		if x[hi] < x[lo] {
			x[hi], x[lo] = x[lo], x[hi]
		}
		if x[hi] < x[mid] {
			x[hi], x[mid] = x[mid], x[hi]
		}
		p := x[mid]
		i, j := lo, hi
		for i <= j {
			for x[i] < p {
				i++
			}
			for p < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default: // j < k < i: x[k] equals the pivot
			return x[k]
		}
	}
	return x[k]
}

// Len returns the number of retained samples.
func (c *CDF) Len() int { return len(c.sorted) }
