package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/dsp"
	"rfipad/internal/tagmodel"
)

// synthStatic builds a static capture: each tag's phase sits at its own
// centre with its own jitter — tag diversity plus deviation bias.
func synthStatic(numTags, reads int, centres, sigmas []float64, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	var out []Reading
	for j := 0; j < reads; j++ {
		for i := 0; i < numTags; i++ {
			out = append(out, Reading{
				TagIndex: i,
				EPC:      tagmodel.MakeEPC(i),
				Time:     time.Duration(j*40+i) * time.Millisecond,
				Phase:    dsp.Wrap(centres[i] + rng.NormFloat64()*sigmas[i]),
				RSS:      -45,
			})
		}
	}
	return out
}

func evenCentres(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = dsp.Wrap(float64(i) * 2.39996) // golden-angle spread over the circle
	}
	return c
}

func constSigmas(n int, s float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func TestCalibrateRecoversCentresAndBias(t *testing.T) {
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.03)
	sigmas[7] = 0.20 // one jittery tag (location diversity)
	cal, err := Calibrate(synthStatic(n, 100, centres, sigmas, 1), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		diff := math.Abs(dsp.WrapSigned(cal.MeanPhase[i] - centres[i]))
		if diff > 0.05 {
			t.Errorf("tag %d mean off by %v", i, diff)
		}
	}
	if cal.Bias[7] < 0.12 {
		t.Errorf("jittery tag bias = %v, want ≈0.2", cal.Bias[7])
	}
	// Eq. 9: weights sum to 1, and the jittery tag carries the largest.
	var sum float64
	maxI := 0
	for i := 0; i < n; i++ {
		sum += cal.Weight(i)
		if cal.Weight(i) > cal.Weight(maxI) {
			maxI = i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	if maxI != 7 {
		t.Errorf("largest weight on tag %d, want 7", maxI)
	}
	if cal.NumTags() != n {
		t.Errorf("NumTags = %d", cal.NumTags())
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, 0); err == nil {
		t.Error("zero tags should error")
	}
	// A tag with too few reads errors.
	readings := synthStatic(3, 100, evenCentres(3), constSigmas(3, 0.03), 2)
	var thin []Reading
	for _, r := range readings {
		if r.TagIndex == 2 && r.Time > 200*time.Millisecond {
			continue
		}
		thin = append(thin, r)
	}
	// Remove most of tag 2's reads.
	var sparse []Reading
	kept := 0
	for _, r := range thin {
		if r.TagIndex == 2 {
			if kept >= minCalibrationReads-1 {
				continue
			}
			kept++
		}
		sparse = append(sparse, r)
	}
	if _, err := Calibrate(sparse, 3); err == nil {
		t.Error("starved tag should error")
	}
}

func TestUniformCalibration(t *testing.T) {
	c := UniformCalibration(10)
	for i := 0; i < 10; i++ {
		if c.MeanPhase[i] != 0 {
			t.Error("uniform calibration should have zero means")
		}
		if math.Abs(c.Weight(i)-0.1) > 1e-12 {
			t.Errorf("weight %d = %v", i, c.Weight(i))
		}
	}
}

func TestGridHelpers(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	if g.NumTags() != 25 {
		t.Errorf("NumTags = %d", g.NumTags())
	}
	r, c := g.RowCol(12)
	if r != 2 || c != 2 {
		t.Errorf("RowCol(12) = %d,%d", r, c)
	}
	x, y := g.Norm(12)
	if x != 0.5 || y != 0.5 {
		t.Errorf("Norm(12) = %v,%v", x, y)
	}
	x, y = g.Norm(0)
	if x != 0 || y != 0 {
		t.Errorf("Norm(0) = %v,%v", x, y)
	}
	x, y = g.Norm(24)
	if x != 1 || y != 1 {
		t.Errorf("Norm(24) = %v,%v", x, y)
	}
	// Degenerate single-row/col grids do not divide by zero.
	g1 := Grid{Rows: 1, Cols: 1}
	if x, y := g1.Norm(0); x != 0 || y != 0 {
		t.Errorf("1×1 Norm = %v,%v", x, y)
	}
}

func TestByTagDropsOutOfRange(t *testing.T) {
	rs := []Reading{
		{TagIndex: 0, Time: 2 * time.Millisecond},
		{TagIndex: 0, Time: time.Millisecond},
		{TagIndex: 5, Time: 0},
		{TagIndex: -1, Time: 0},
	}
	split := splitOf(rs, 3)
	tag0 := split.run(0).times
	if len(tag0) != 2 {
		t.Errorf("tag 0 series = %d", len(tag0))
	}
	if tag0[0] > tag0[1] {
		t.Error("series not time-sorted")
	}
	if len(split.run(1).times)+len(split.run(2).times) != 0 {
		t.Error("phantom readings")
	}
}
