package dsp

import "math"

// Columnar kernels: single-pass variants of the per-sample primitives,
// written for the batch ingest path where the data already sits in
// struct-of-arrays columns. Each kernel sweeps a []float64 column once
// instead of being called per reading, and each is bit-identical to the
// composition of per-sample calls it replaces — the streaming
// recognizer's event equivalence depends on that, so any change here
// must preserve the exact floating-point operation sequence.

// WrapSignedNear is WrapSigned for angles already near the principal
// range: for |theta| < 4π (and theta > -2π) it reduces with one or two
// additions instead of math.Mod, falling back to WrapSigned outside
// that range (and for NaN/Inf). The branch structure replays the exact
// operation sequence Wrap/WrapSigned perform — math.Mod is exact, and
// every subtraction below is exact by Sterbenz's lemma on the covered
// intervals — so the result is bit-identical to WrapSigned(theta).
//
// The diversity-suppression hot path calls this on phase − meanPhase,
// which lies in (-π, 3π) by construction (phase ∈ [0, 2π), circular
// mean ∈ [0, 2π)), so the fallback is never taken in practice.
// The |theta| < 2π body is kept small enough to inline into the
// column hot loops; wrapSignedNearWide carries the remaining arms.
func WrapSignedNear(theta float64) float64 {
	if theta >= 0 {
		if theta < 2*math.Pi {
			// math.Mod(theta, 2π) == theta exactly; Wrap adds nothing.
			if theta > math.Pi {
				return theta - 2*math.Pi
			}
			return theta
		}
	} else if theta > -2*math.Pi {
		// math.Mod(theta, 2π) == theta exactly (|theta| < 2π); Wrap then
		// adds one period — the same single rounded addition as here.
		t := theta + 2*math.Pi
		if t > math.Pi {
			return t - 2*math.Pi
		}
		return t
	}
	return wrapSignedNearWide(theta)
}

// wrapSignedNearWide reduces theta >= 2π (and the NaN/Inf/far cases):
// the outlined continuation of WrapSignedNear.
func wrapSignedNearWide(theta float64) float64 {
	if theta >= 2*math.Pi && theta < 4*math.Pi {
		// math.Mod subtracts one period, exactly — and the direct
		// subtraction is exact too (Sterbenz: theta ∈ [π, 4π]).
		t := theta - 2*math.Pi
		if t > math.Pi {
			return t - 2*math.Pi
		}
		return t
	}
	return WrapSigned(theta) // also catches NaN and ±Inf
}

// wrapNear is Wrap without math.Mod for angles in (−2π, 2π), where
// Mod returns its input exactly: θ in [0, 2π) is already wrapped (−0
// included, which Wrap also returns unchanged), and θ in (−2π, 0) takes
// the one rounded addition of 2π that Wrap performs. Everything else —
// ±2π, farther angles, NaN and ±Inf — falls back to Wrap, so the
// result is bit-identical to Wrap(theta) for every input. Suppressing a
// phase in [0, 2π) against a mean in [0, 2π) always lands in the fast
// arms.
func wrapNear(theta float64) float64 {
	if theta >= 0 {
		if theta < 2*math.Pi {
			return theta
		}
	} else if theta > -2*math.Pi {
		return theta + 2*math.Pi
	}
	return Wrap(theta)
}

// UnwrapColumn fuses diversity suppression and phase de-periodicity
// over one tag's phase column: dst[i] = unwrap(Wrap(phase[i] − mean)),
// in a single pass with no intermediate buffer. It is bit-identical to
// wrapping each sample with Wrap(p − mean) and then calling UnwrapInto
// on the result. A NaN mean disables the suppression (samples pass to
// the unwrapper raw), which is how callers handle the
// no-suppression ablation arm without a second code path.
func UnwrapColumn(dst, phase []float64, mean float64) []float64 {
	out := growFloats(dst, len(phase))
	if len(phase) == 0 {
		return out
	}
	suppress := !math.IsNaN(mean)
	wrap := func(p float64) float64 {
		if suppress {
			return wrapNear(p - mean)
		}
		return p
	}
	p0 := wrap(phase[0])
	out[0] = p0
	offset := 0.0
	prev := p0
	for i := 1; i < len(phase); i++ {
		p := wrap(phase[i])
		if math.IsNaN(p) {
			out[i] = p
			continue
		}
		if !math.IsNaN(prev) {
			d := p - prev
			if d > math.Pi {
				offset -= 2 * math.Pi
			} else if d < -math.Pi {
				offset += 2 * math.Pi
			}
		}
		out[i] = p + offset
		prev = p
	}
	return out
}

// SmoothedTotalVariation returns TotalVariation(MovingAverage(x, width))
// without materializing the smoothed series: each centred-window mean is
// computed exactly as MovingAverageInto computes it (a fresh Mean over
// the shrunken edge window), and the |Δ| accumulation replays
// TotalVariation's NaN-skipping loop — so the result is bit-identical
// to the two-pass composition while touching one buffer fewer.
func SmoothedTotalVariation(x []float64, width int) float64 {
	var tv float64
	prev := math.NaN()
	n := len(x)
	half := width / 2
	for i := 0; i < n; i++ {
		v := smoothedAt(x, i, half, width)
		if math.IsNaN(v) {
			continue
		}
		if !math.IsNaN(prev) {
			tv += math.Abs(v - prev)
		}
		prev = v
	}
	return tv
}

// SmoothedNetChange is NetChange(MovingAverage(x, width)) in one pass —
// the telescoped ablation arm's counterpart to SmoothedTotalVariation.
func SmoothedNetChange(x []float64, width int) float64 {
	first, last := math.NaN(), math.NaN()
	n := len(x)
	half := width / 2
	for i := 0; i < n; i++ {
		v := smoothedAt(x, i, half, width)
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(first) {
			first = v
		}
		last = v
	}
	if math.IsNaN(first) || math.IsNaN(last) {
		return 0
	}
	return last - first
}

// smoothedAt is one output sample of MovingAverageInto: the Mean of the
// centred (edge-shrunken) window around i, or a copy when width <= 1.
func smoothedAt(x []float64, i, half, width int) float64 {
	if width <= 1 {
		return x[i]
	}
	lo := i - half
	if lo < 0 {
		lo = 0
	}
	hi := i + half + 1
	if hi > len(x) {
		hi = len(x)
	}
	return Mean(x[lo:hi])
}
