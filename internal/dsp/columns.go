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

// PhaseVariation is Eq. 8–10's per-tag accumulation in one pass with
// no buffer. Each sample is suppressed against mean and wrapped (Wrap(p
// − mean)), the series is unwrapped (UnwrapInto) and smoothed by the
// centred width-3 moving average (MovingAverage), and the total
// variation (TotalVariation) and net change (NetChange) of the smoothed
// series are returned. It is bit-identical to that composition: each
// step replays the operation sequence of the function it stands for,
// and a window sample outside the series is NaN, which Mean skips just
// as the shrunken edge window leaves it out. A NaN mean disables the
// suppression (samples go to the unwrapper raw), which is how callers
// run the no-suppression ablation arm without a second code path.
func PhaseVariation(phase []float64, mean float64) (tv, net float64) {
	n := len(phase)
	if n == 0 {
		return 0, 0
	}
	suppress := !math.IsNaN(mean)
	p0 := phase[0]
	if suppress {
		p0 = wrapNear(p0 - mean)
	}
	// The unwrapper's offset and last non-NaN sample; the unwrapped
	// samples a, b, c around smoothed sample i-1; and the first and
	// last non-NaN smoothed samples.
	offset, prev := 0.0, p0
	a, b := math.NaN(), p0
	first, last := math.NaN(), math.NaN()
	for i := 1; i <= n; i++ {
		c := math.NaN() // past the end: the edge window shrinks
		if i < n {
			p := phase[i]
			if suppress {
				p = wrapNear(p - mean)
			}
			c = p
			if !math.IsNaN(p) {
				if !math.IsNaN(prev) {
					d := p - prev
					if d > math.Pi {
						offset -= 2 * math.Pi
					} else if d < -math.Pi {
						offset += 2 * math.Pi
					}
				}
				c = p + offset
				prev = p
			}
		}
		if v := mean3(a, b, c); !math.IsNaN(v) {
			if math.IsNaN(last) {
				first = v
			} else {
				tv += math.Abs(v - last)
			}
			last = v
		}
		a, b = b, c
	}
	if math.IsNaN(first) {
		return tv, 0
	}
	return tv, last - first
}

// mean3 is Mean over the three samples a, b, c.
func mean3(a, b, c float64) float64 {
	var sum float64
	n := 0
	if !math.IsNaN(a) {
		sum += a
		n++
	}
	if !math.IsNaN(b) {
		sum += b
		n++
	}
	if !math.IsNaN(c) {
		sum += c
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
