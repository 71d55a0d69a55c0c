package core

import (
	"math"

	"rfipad/internal/dsp"
)

// Suppression selects how much of the diversity-suppression machinery
// (§III-A2) is applied — the knobs behind the Fig. 16 comparison and
// the ablation benchmarks.
type Suppression int

// Suppression modes.
const (
	// SuppressFull applies both halves of §III-A2: θ̃_i mean
	// subtraction (tag diversity) and per-tag noise-rate subtraction
	// (location diversity). The subtraction is our operational form of
	// Eq. 9–10's inverse-bias weighting: it likewise "appropriately
	// weakens" the tags with larger deviation bias, but as a noise
	// floor removed from the accumulated variation rather than a
	// multiplicative distortion of the stroke's intensity profile.
	SuppressFull Suppression = iota + 1
	// SuppressMeanOnly subtracts the static mean but skips the
	// location-diversity compensation.
	SuppressMeanOnly
	// SuppressNone uses raw phases with no compensation — the
	// "without diversity suppression" arm of Fig. 16.
	SuppressNone
	// SuppressInverseWeight is the literal Eq. 10 form — divide each
	// tag's accumulated variation by w_i — kept for the ablation
	// benchmark comparing it against the subtractive form.
	SuppressInverseWeight
)

// Accumulator selects the reading of Eq. 10's sum for the ablation
// bench (DESIGN.md §5).
type Accumulator int

// Accumulator variants.
const (
	// AccumTotalVariation is Σ|θ'_{j+1}−θ'_j| — the reading consistent
	// with Fig. 7 and the default.
	AccumTotalVariation Accumulator = iota + 1
	// AccumNetChange is the literal telescoped sum θ'_M−θ'_1.
	AccumNetChange
)

// DisturbanceOptions tunes DisturbanceMap.
type DisturbanceOptions struct {
	// Suppression defaults to SuppressFull.
	Suppression Suppression
	// Accumulator defaults to AccumTotalVariation.
	Accumulator Accumulator
}

// DisturbanceMap computes I'_i (Eq. 10) for every tag from the readings
// of one stroke window: per tag, the phase stream is mean-subtracted
// (Eq. 8), unwrapped (§III-A3), smoothed by a width-3 moving average,
// accumulated, and divided by the tag's weight. The result has one
// entry per tag; tags with fewer than two reads in the window score
// zero.
func DisturbanceMap(w ReadingBatch, cal *Calibration, opts DisturbanceOptions) []float64 {
	return new(DisturbanceScratch).Map(w, cal, opts)
}

// DisturbanceScratch owns every buffer one stroke window's evaluation
// needs — the window's per-tag split, the map itself and the trough
// finder's buffers — so a hot caller evaluating windows repeatedly
// allocates nothing once the buffers reach their high-water marks. The zero value is ready. A scratch is not safe for
// concurrent use; pipelines and calibration borrow them from one
// package-level sync.Pool.
type DisturbanceScratch struct {
	split  tagSplit
	out    []float64
	trough dsp.TroughScratch
}

// Map is DisturbanceMap through this scratch's buffers: it splits the
// window's columns by tag into the scratch and computes the map from
// the split, reading each tag's phase run where it sits. The split
// stays for tagTroughs. The window is only read. The returned slice is
// owned by the scratch and is invalidated by the next Map call —
// callers that retain it must copy (GridImage already does).
func (sc *DisturbanceScratch) Map(w ReadingBatch, cal *Calibration, opts DisturbanceOptions) []float64 {
	if opts.Suppression == 0 {
		opts.Suppression = SuppressFull
	}
	if opts.Accumulator == 0 {
		opts.Accumulator = AccumTotalVariation
	}
	n := cal.NumTags()
	sc.split.split(w, n)
	sc.out = grow(sc.out, n)
	out := sc.out
	for i := range out {
		out[i] = 0
	}
	for i := range out {
		if cal.IsDead(i) {
			// An uncalibrated tag's sporadic reads would inject garbage;
			// its cell is interpolated from live neighbors downstream.
			continue
		}
		phases := sc.split.run(i).phases
		if len(phases) < 2 {
			continue
		}
		// θ'_ij = θ_ij − θ̃_i (Eq. 8), wrapped back onto the reporting
		// range, unwrapped, smoothed and accumulated in one pass (a NaN
		// mean tells the kernel to skip the suppression, which is the
		// SuppressNone ablation arm). Smoothing comes before the
		// accumulation: measurement noise would otherwise grow the total
		// variation linearly with the read count, while the hand's
		// disturbance is smooth at the MAC's sampling rate.
		mean := math.NaN()
		if opts.Suppression != SuppressNone {
			mean = cal.MeanPhase[i]
		}
		acc, net := dsp.PhaseVariation(phases, mean)
		if opts.Accumulator == AccumNetChange {
			if net >= 0 {
				acc = net
			} else {
				acc = -net
			}
		}
		switch opts.Suppression {
		case SuppressFull:
			// Subtract the tag's calibrated noise accumulation for a
			// window of this many samples; what remains is
			// hand-induced.
			acc -= cal.TVRate[i] * float64(len(phases)-1)
			if acc < 0 {
				acc = 0
			}
		case SuppressInverseWeight:
			// I'_i = w_i⁻¹ · Σ … (Eq. 10 literal): quiet tags count
			// for more, jittery tags are damped.
			if w := cal.Weight(i); w > 0 {
				acc /= w * float64(n) // ×n keeps the scale read-count independent
			}
		default:
			// Mean-only and none keep uniform weighting.
		}
		out[i] = acc
	}
	return out
}
