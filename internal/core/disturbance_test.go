package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/dsp"
)

// synthStroke builds a capture where the hand sweeps over the tags in
// hot, giving each a phase excursion of the given amplitude, while all
// tags keep their per-tag centres and noise.
func synthStroke(numTags, reads int, centres, sigmas []float64, hot map[int]float64, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	var out []Reading
	dur := 2 * time.Second
	for j := 0; j < reads; j++ {
		tm := time.Duration(float64(dur) * float64(j) / float64(reads))
		u := float64(j) / float64(reads)
		for i := 0; i < numTags; i++ {
			p := centres[i] + rng.NormFloat64()*sigmas[i]
			if amp, isHot := hot[i]; isHot {
				// A passing hand: a few oscillations within the window.
				p += amp * math.Sin(u*2*math.Pi*2.5)
			}
			out = append(out, Reading{
				TagIndex: i, Time: tm + time.Duration(i)*time.Millisecond,
				Phase: dsp.Wrap(p), RSS: -45,
			})
		}
	}
	return out
}

func TestDisturbanceHighlightsSweptColumn(t *testing.T) {
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 3), n)
	if err != nil {
		t.Fatal(err)
	}
	// Hand sweeps column 2 (indices 2,7,12,17,22).
	hot := map[int]float64{2: 1.2, 7: 1.4, 12: 1.5, 17: 1.4, 22: 1.2}
	readings := synthStroke(n, 60, centres, sigmas, hot, 4)
	vals := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{})
	// Every hot tag outscores every cold tag.
	minHot, maxCold := math.Inf(1), math.Inf(-1)
	for i, v := range vals {
		if _, isHot := hot[i]; isHot {
			minHot = math.Min(minHot, v)
		} else {
			maxCold = math.Max(maxCold, v)
		}
	}
	if minHot <= maxCold {
		t.Errorf("hot floor %v <= cold ceiling %v", minHot, maxCold)
	}
	// And Otsu cleanly extracts the column (Fig. 7c).
	mask := dsp.OtsuBinarize(vals)
	for i, m := range mask {
		if m != (i%5 == 2) {
			t.Errorf("tag %d foreground=%v", i, m)
		}
	}
}

func TestSuppressionBeatsNoneUnderLocationDiversity(t *testing.T) {
	// One noisy tag off the stroke would outshine the stroke without
	// inverse-bias weighting (Fig. 16's premise).
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.03)
	sigmas[14] = 0.5 // violently jittery tag at (2,4)
	static := synthStatic(n, 80, centres, sigmas, 5)
	cal, err := Calibrate(static, n)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[int]float64{2: 1.0, 7: 1.2, 12: 1.3, 17: 1.2, 22: 1.0}
	readings := synthStroke(n, 60, centres, sigmas, hot, 6)

	full := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{Suppression: SuppressFull})
	maskFull := dsp.OtsuBinarize(full)
	if maskFull[14] {
		t.Errorf("full suppression kept the jittery tag in the foreground")
	}
	for _, i := range []int{2, 7, 12, 17, 22} {
		if !maskFull[i] {
			t.Errorf("full suppression lost stroke tag %d", i)
		}
	}

	// Without weighting, the jittery tag's noise total-variation
	// rivals the stroke tags.
	none := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{Suppression: SuppressMeanOnly})
	var coldMax float64
	for i, v := range none {
		if _, isHot := hot[i]; !isHot && v > coldMax {
			coldMax = v
		}
	}
	if none[14] < coldMax {
		t.Error("expected tag 14 to be the loudest cold tag without weighting")
	}
	ratioFull := full[12] / full[14]
	ratioNone := none[12] / none[14]
	if ratioFull <= ratioNone {
		t.Errorf("weighting should improve stroke/noise contrast: %v <= %v", ratioFull, ratioNone)
	}
}

func TestDisturbanceAccumulatorVariants(t *testing.T) {
	const n = 4
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.01)
	cal, err := Calibrate(synthStatic(n, 50, centres, sigmas, 7), n)
	if err != nil {
		t.Fatal(err)
	}
	// An oscillating disturbance nets out to ~zero but has large total
	// variation — the reason Eq. 10 must be read as total variation.
	hot := map[int]float64{1: 1.5}
	readings := synthStroke(n, 80, centres, sigmas, hot, 8)
	tv := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{Accumulator: AccumTotalVariation})
	net := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{Accumulator: AccumNetChange})
	if tv[1] < 5*net[1] {
		t.Errorf("oscillation: TV %v should dwarf net change %v", tv[1], net[1])
	}
}

func TestDisturbanceSparseTagScoresZero(t *testing.T) {
	cal := UniformCalibration(3)
	readings := []Reading{
		{TagIndex: 0, Time: 0, Phase: 1},
		{TagIndex: 1, Time: 0, Phase: 1},
		{TagIndex: 1, Time: time.Millisecond, Phase: 2},
		{TagIndex: 1, Time: 2 * time.Millisecond, Phase: 3},
	}
	vals := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{})
	if vals[0] != 0 {
		t.Errorf("single-read tag scored %v", vals[0])
	}
	if vals[2] != 0 {
		t.Errorf("unread tag scored %v", vals[2])
	}
	if vals[1] <= 0 {
		t.Errorf("multi-read tag scored %v", vals[1])
	}
}

func TestDisturbanceHandlesWrapBoundary(t *testing.T) {
	// A tag whose centre sits at ~0 rad: raw phases alternate around
	// the 0/2π boundary. Mean subtraction + unwrap must not inflate
	// its score.
	const n = 2
	centres := []float64{0.02, 3.0}
	sigmas := []float64{0.03, 0.03}
	cal, err := Calibrate(synthStatic(n, 80, centres, sigmas, 9), n)
	if err != nil {
		t.Fatal(err)
	}
	readings := synthStatic(n, 80, centres, sigmas, 10) // still static
	// With noise-rate subtraction both static tags score ≈ 0; without
	// it, the boundary tag's score must not be inflated by 2π jumps.
	vals := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{})
	for i, v := range vals {
		if v > 1 {
			t.Errorf("static tag %d scored %v after suppression", i, v)
		}
	}
	raw := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{Suppression: SuppressMeanOnly})
	ratio := raw[0] / raw[1]
	if ratio > 3 || ratio < 1.0/3 {
		t.Errorf("boundary tag score %v vs %v (ratio %v)", raw[0], raw[1], ratio)
	}
}
