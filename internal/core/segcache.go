package core

import (
	"math"
	"time"

	"rfipad/internal/dsp"
)

// segAcc is one frame×tag accumulator cell: the running Σp² and sample
// count interleaved so the hot loop's read-modify-write touches one
// cache line per reading instead of two parallel arrays.
type segAcc struct {
	sumSq float64
	count int32
	_     int32
}

// IEEE-754 bit patterns of π and 2π, used by the branchless wrap in
// addColumns.
const (
	piBits    = 0x400921FB54442D18
	twoPiBits = 0x401921FB54442D18
)

// segCache maintains the segmenter's per-frame Eq. 11 statistics
// incrementally so the streaming recognizer never rescans its buffer.
// Each accepted reading folds into its frame's per-tag (Σp², count)
// accumulators in O(1); producing the frame-RMS trace for a poll only
// recomputes frames from the lowest one a reading has touched since the
// last poll. The cache's frame grid is anchored at origin, which the
// recognizer keeps frame-aligned, so history trims never shift frame
// boundaries and the incremental trace stays bit-identical to a fresh
// cache folding the same readings. Offline segmentation builds exactly
// such a cache (Segmenter.frameTrace), so this is the one Eq. 11.
//
// Accumulators are kept only for frames a reading can still reach. The
// recognizer retires every frame before its late horizon (readings
// older than that are dropped as late): the frame's value is computed
// one last time and its accumulators are freed, so a live stream holds
// about a second of accumulators however long its trace is. The
// offline cache never retires a frame.
type segCache struct {
	frameLen time.Duration
	n        int       // tags
	factor   []float64 // Eq. 11 per-tag attenuation, fixed per calibration
	// adjMean folds the dead-tag exclusion into the mean-phase lookup:
	// a live tag's entry is its calibrated mean, a dead tag's is NaN, so
	// the column hot loop's suppressed phase comes out NaN for dead tags
	// and the single NaN check covers both exclusions. Sporadic reads
	// from an uncalibrated tag would otherwise feed raw, unsuppressed
	// phases into the frame statistic.
	adjMean []float64

	origin time.Duration // stream time of frame 0; the recognizer keeps it frame-aligned
	// off is the number of dead frames at the physical head of vals:
	// trims advance it instead of copying, and the array only compacts
	// once the dead prefix outgrows the live span, so the steady-state
	// per-frame trim is O(1) amortized. Logical frame f (0 = origin)
	// lives at vals[off+f].
	off  int
	vals []float64 // cached Eq. 11 value per frame
	// done is the first frame that still has accumulators: frames
	// before it are final, their value in vals. acc holds the frames
	// from accBase on, accBase <= done; the frames [accBase, done) are
	// a dead prefix, compacted away once it outgrows the live frames
	// after it, as off is for vals. accBase goes negative when a trim
	// drops frames that were never retired.
	done, accBase int
	acc           []segAcc // [(frame-accBase)*n + tag] accumulators
	// clean is the change watermark: logical frames [0, clean) hold
	// their current value and have not changed since the last values
	// call. A reading lowers it to its frame; a values
	// call recomputes from it and raises it to the call's horizon.
	// In-order ingest lands at or past the watermark, so it only moves
	// for a late reading or after a horizon jump computed frames that
	// were not complete yet. Retiring computes the frames it finalizes
	// without raising it, so the next values call still reports them.
	clean int
}

// reset empties the cache for one calibrated stream. It keeps only the
// arrays' capacity: the frame grid goes back to origin 0 with no dead
// prefix, so a recycled cache is indistinguishable from a new one.
func (c *segCache) reset(frameLen time.Duration, cal *Calibration) {
	n := cal.NumTags()
	*c = segCache{frameLen: frameLen, n: n,
		factor: grow(c.factor, n), adjMean: grow(c.adjMean, n),
		acc: c.acc[:0], vals: c.vals[:0]}
	// Eq. 11 runs over the diversity-suppressed streams: each tag's
	// contribution is normalized by its relative deviation bias, so a
	// tag sitting in heavy multipath cannot drown the frame statistic
	// (with UniformCalibration all factors are 1 — the unsuppressed
	// arm of Fig. 16). The factor only attenuates (≤1): a tag noisier
	// than typical is damped toward the typical level; quiet tags pass
	// unchanged.
	typBias := dsp.Median(cal.Bias)
	for i := range c.factor {
		f := 1.0
		if cal.Bias[i] > 0 && typBias > 0 && cal.Bias[i] > typBias {
			f = typBias / cal.Bias[i]
			if f < 1.0/32 {
				f = 1.0 / 32
			}
		}
		c.factor[i] = f
	}
	for i := range c.adjMean {
		if cal.IsDead(i) {
			c.adjMean[i] = math.NaN()
		} else {
			c.adjMean[i] = cal.MeanPhase[i]
		}
	}
}

// frames returns the number of live frames currently held.
func (c *segCache) frames() int { return len(c.vals) - c.off }

// ensure grows the cache to cover at least nFrames live frames, with
// one append per array. Appends reuse capacity reclaimed by trims and
// retirements, so a bounded stream settles into zero growth.
func (c *segCache) ensure(nFrames int) {
	if add := nFrames - c.frames(); add > 0 {
		c.vals = append(c.vals, make([]float64, add)...)
		c.acc = append(c.acc, make([]segAcc, add*c.n)...)
	}
}

// addColumns folds a column run of accepted readings into the frame
// accumulators, in run order. Every Time must fall in frame done or
// later: callers drop older readings as late. The run may be in any
// time order, since the frame is recomputed whenever a reading leaves
// the current one; in-order runs pay the frame division once per
// frame.
func (c *segCache) addColumns(times []time.Duration, phases []float64, tags []int32) {
	if len(times) == 0 {
		return
	}
	// Frame-run tracking: consecutive readings almost always land in
	// the same frame, so the division only runs on frame changes. The
	// column views and the tag count live in locals so the inner loop
	// carries no pointer reloads; acc is re-hoisted after every ensure,
	// which may grow it.
	phases = phases[:len(times)]
	tags = tags[:len(times)]
	adjMean := c.adjMean
	acc := c.acc
	n := int32(c.n)
	base := -1
	var frameLo, frameHi time.Duration
	for k, t := range times {
		tag := tags[k]
		if uint32(tag) >= uint32(n) {
			continue
		}
		d := phases[k] - adjMean[tag]
		if d > -2*math.Pi && d < 2*math.Pi {
			// WrapSignedNear's |d| < 2π arms, spelled out branch-free:
			// the sign of d and the >π overshoot are data-random, so the
			// natural branches mispredict about half the time. Both
			// steps add/subtract an exact 0.0 or 2π selected by integer
			// masks — the same single-rounding operations the branchy
			// form performs, so the result is bit-identical through p²
			// (the only consumer; ±0.0 square the same).
			d += math.Float64frombits((math.Float64bits(d) >> 63) * twoPiBits)
			d -= math.Float64frombits(((piBits - math.Float64bits(d)) >> 63) * twoPiBits)
		} else {
			// Everything else — NaN (dead tags), ±Inf, |d| >= 2π — takes
			// the full dsp wrap.
			d = dsp.WrapSignedNear(d)
			if math.IsNaN(d) {
				continue
			}
		}
		if base < 0 || t >= frameHi || t < frameLo {
			f := int((t - c.origin) / c.frameLen)
			c.ensure(f + 1)
			acc = c.acc
			frameLo = c.origin + time.Duration(f)*c.frameLen
			frameHi = frameLo + c.frameLen
			c.clean = min(c.clean, f)
			base = (f - c.accBase) * c.n
		}
		a := &acc[base+int(tag)]
		a.sumSq += d * d
		a.count++
	}
}

// skipTo re-anchors an empty cache's frame grid at origin (a multiple
// of frameLen). Used when a restored stream resumes mid-capture; a
// cache that already holds frames keeps its anchor.
func (c *segCache) skipTo(origin time.Duration) {
	if c.frames() == 0 && origin > c.origin {
		c.origin = origin
	}
}

// trimTo drops every frame before newOrigin (which must be
// frame-aligned and >= origin). Dropped frames only advance the dead
// prefixes; the arrays compact in place once a prefix outgrows the
// live span, so trimming is O(1) amortized per dropped frame.
func (c *segCache) trimTo(newOrigin time.Duration) {
	drop := int((newOrigin - c.origin) / c.frameLen)
	if drop <= 0 {
		return
	}
	live := c.frames()
	c.clean = max(c.clean-drop, 0)
	if drop >= live {
		c.vals = c.vals[:0]
		c.acc = c.acc[:0]
		c.off, c.done, c.accBase = 0, 0, 0
	} else {
		c.off += drop
		if live-drop < c.off {
			c.vals = c.vals[:copy(c.vals, c.vals[c.off:])]
			c.off = 0
		}
		c.done = max(c.done-drop, 0)
		c.accBase -= drop
		c.shedAcc()
	}
	c.origin = newOrigin
}

// retire finalizes every frame before stream time late, the horizon
// behind which the caller drops readings as late: each such frame's
// value is computed from its accumulators, which are then freed. The
// watermark stays where it is, so the next values call still reports
// the frames computed here as changed.
func (c *segCache) retire(late time.Duration) {
	if late <= c.origin {
		return
	}
	h := int((late - c.origin) / c.frameLen)
	if h <= c.done {
		return
	}
	c.ensure(h)
	c.compute(max(c.clean, c.done), h)
	c.done = h
	c.shedAcc()
}

// shedAcc compacts acc once its dead prefix outgrows the live frames
// after it, so a retired frame costs O(1) amortized.
func (c *segCache) shedAcc() {
	if dead := c.done - c.accBase; dead > c.frames()-c.done {
		c.acc = c.acc[:copy(c.acc, c.acc[dead*c.n:])]
		c.accBase = c.done
	}
}

// compute stores the Eq. 11 value of frames [from, to), each of which
// must still have its accumulators.
func (c *segCache) compute(from, to int) {
	vals, acc, factor, n := c.vals[c.off:], c.acc, c.factor, c.n
	for f := from; f < to; f++ {
		var sum float64
		base := (f - c.accBase) * n
		for i := 0; i < n; i++ {
			if a := &acc[base+i]; a.count > 0 {
				sum += factor[i] * math.Sqrt(a.sumSq/float64(a.count))
			}
		}
		vals[f] = sum
	}
}

// values returns the Eq. 11 trace for every complete frame before
// horizon, recomputing only frames from the change watermark on. The
// returned slice is owned by the cache and valid until the next
// addColumns/trimTo/retire/values call.
func (c *segCache) values(horizon time.Duration) []float64 {
	trace, _ := c.valuesSince(horizon)
	return trace
}

// valuesSince is values plus a change watermark: changedFrom is the
// lowest frame index whose value changed since the previous call (or
// len(trace) when every returned frame is as that call left it). The
// segmenter's incremental window-std path uses it to recompute only the
// sliding windows whose inputs moved. A frame past the watermark that
// no reading touched recomputes to the same bits, so the watermark only
// costs work, never exactness.
func (c *segCache) valuesSince(horizon time.Duration) (trace []float64, changedFrom int) {
	nFrames := int((horizon - c.origin) / c.frameLen)
	if nFrames <= 0 {
		return nil, 0
	}
	c.ensure(nFrames)
	changedFrom = min(c.clean, nFrames)
	// Retired frames hold their final value already.
	c.compute(max(changedFrom, c.done), nFrames)
	c.clean = max(c.clean, nFrames)
	return c.vals[c.off : c.off+nFrames], changedFrom
}
