package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestWrapSignedNearMatchesWrapSigned sweeps the fast wrap against the
// reference over a dense grid plus the adversarial edge values; the
// results must be bit-identical (the columnar ingest path's event
// equivalence rests on it).
func TestWrapSignedNearMatchesWrapSigned(t *testing.T) {
	check := func(theta float64) {
		t.Helper()
		got := WrapSignedNear(theta)
		want := WrapSigned(theta)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("WrapSignedNear(%v) = %v, want NaN", theta, got)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapSignedNear(%v) = %v (%x), WrapSigned = %v (%x)",
				theta, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for theta := -12.0; theta <= 16.0; theta += 1e-3 {
		check(theta)
	}
	edges := []float64{
		0, math.Copysign(0, -1),
		math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi, 4 * math.Pi,
		math.Nextafter(math.Pi, 4), math.Nextafter(math.Pi, 0),
		math.Nextafter(2*math.Pi, 7), math.Nextafter(2*math.Pi, 0),
		math.Nextafter(4*math.Pi, 13), math.Nextafter(4*math.Pi, 0),
		math.Nextafter(-2*math.Pi, 0), math.Nextafter(-2*math.Pi, -7),
		1e-300, -1e-300, 100, -100,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, theta := range edges {
		check(theta)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		check((rng.Float64() - 0.5) * 8 * math.Pi)
	}
}

// TestUnwrapColumnMatchesComposition pins UnwrapColumn against the
// two-pass composition (Wrap(p−mean) per sample, then UnwrapInto) it
// fuses, including NaN samples and the NaN-mean passthrough arm.
func TestUnwrapColumnMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		phases := make([]float64, n)
		for i := range phases {
			phases[i] = rng.Float64() * 2 * math.Pi
			if rng.Intn(12) == 0 {
				phases[i] = math.NaN()
			}
		}
		mean := rng.Float64() * 2 * math.Pi
		if trial%5 == 0 {
			mean = math.NaN() // suppression disabled
		}

		wrapped := make([]float64, n)
		for i, p := range phases {
			if math.IsNaN(mean) {
				wrapped[i] = p
			} else {
				wrapped[i] = Wrap(p - mean)
			}
		}
		want := UnwrapInto(nil, wrapped)
		got := UnwrapColumn(nil, phases, mean)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d sample %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSmoothedKernelsMatchComposition pins the fused moving-average
// accumulators against MovingAverage + TotalVariation/NetChange.
func TestSmoothedKernelsMatchComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
			if rng.Intn(10) == 0 {
				x[i] = math.NaN()
			}
		}
		for _, width := range []int{0, 1, 2, 3, 5, 8} {
			sm := MovingAverage(x, width)
			wantTV := TotalVariation(sm)
			gotTV := SmoothedTotalVariation(x, width)
			if math.Float64bits(gotTV) != math.Float64bits(wantTV) {
				t.Fatalf("trial %d width %d: SmoothedTotalVariation = %v, want %v", trial, width, gotTV, wantTV)
			}
			wantNC := NetChange(sm)
			gotNC := SmoothedNetChange(x, width)
			if math.Float64bits(gotNC) != math.Float64bits(wantNC) {
				t.Fatalf("trial %d width %d: SmoothedNetChange = %v, want %v", trial, width, gotNC, wantNC)
			}
		}
	}
}

// TestWrapNearMatchesWrap checks the fast wrap UnwrapColumn applies to
// p − mean against Wrap, bit for bit (the sign of zero included), on
// random angles across several periods and on every boundary: ±0, ±2π
// and their floating-point neighbours, NaN and ±Inf.
func TestWrapNearMatchesWrap(t *testing.T) {
	check := func(theta float64) {
		t.Helper()
		got, want := wrapNear(theta), Wrap(theta)
		if math.IsNaN(want) && math.IsNaN(got) {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapNear(%v) = %v (%x), Wrap = %v (%x)",
				theta, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	negZero := math.Copysign(0, -1)
	edges := []float64{
		0, negZero,
		math.Nextafter(0, 1), math.Nextafter(0, -1),
		2 * math.Pi, -2 * math.Pi,
		math.Nextafter(2*math.Pi, 0), math.Nextafter(2*math.Pi, 7),
		math.Nextafter(-2*math.Pi, 0), math.Nextafter(-2*math.Pi, -7),
		4 * math.Pi, -4 * math.Pi,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, theta := range edges {
		check(theta)
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200000; i++ {
		check((rng.Float64() - 0.5) * 12 * math.Pi)
		// Exactly the suppression input: a phase and a mean in [0, 2π).
		check(rng.Float64()*2*math.Pi - rng.Float64()*2*math.Pi)
	}
}
