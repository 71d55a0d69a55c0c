package dsp

import (
	"encoding/binary"
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

// phaseVariationOracle is the composition PhaseVariation fuses:
// Wrap(p − mean) per sample (the raw sample for a NaN mean), UnwrapInto,
// MovingAverage of width 3, then TotalVariation and NetChange.
func phaseVariationOracle(phase []float64, mean float64) (tv, net float64) {
	wrapped := make([]float64, len(phase))
	for i, p := range phase {
		if math.IsNaN(mean) {
			wrapped[i] = p
		} else {
			wrapped[i] = Wrap(p - mean)
		}
	}
	sm := MovingAverage(UnwrapInto(nil, wrapped), 3)
	return TotalVariation(sm), NetChange(sm)
}

// sameFloat reports whether a and b are the same float64 bit for bit,
// or both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkPhaseVariation compares PhaseVariation with its oracle, and the
// one-pass circular statistics with CircularMean and CircularStd.
func checkPhaseVariation(t *testing.T, phase []float64, mean float64) {
	t.Helper()
	tv, net := PhaseVariation(phase, mean)
	wantTV, wantNet := phaseVariationOracle(phase, mean)
	if !sameFloat(tv, wantTV) || !sameFloat(net, wantNet) {
		t.Fatalf("PhaseVariation(%v, %v) = (%v, %v), composition (%v, %v)", phase, mean, tv, net, wantTV, wantNet)
	}
	m, sd := CircularMeanStd(phase)
	if wantM, wantSD := CircularMean(phase), CircularStd(phase); !sameFloat(m, wantM) || !sameFloat(sd, wantSD) {
		t.Fatalf("CircularMeanStd(%v) = (%v, %v), CircularMean and CircularStd (%v, %v)", phase, m, sd, wantM, wantSD)
	}
}

// TestUnwrapColumnMatchesComposition pins the column unwrap fused into
// PhaseVariation (Wrap(p − mean) per sample, then UnwrapInto) through
// the kernel's output, against the whole composition it fuses, on random
// tag runs: lengths 0 to 59, NaN samples, phases that wrap and jump by
// more than π, and the NaN-mean passthrough arm.
func TestUnwrapColumnMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		phases := make([]float64, rng.Intn(60))
		for i := range phases {
			phases[i] = rng.Float64() * 2 * math.Pi
			if trial%3 == 0 {
				phases[i] = (rng.Float64() - 0.25) * 6 * math.Pi
			}
			if rng.Intn(12) == 0 {
				phases[i] = math.NaN()
			}
		}
		mean := rng.Float64() * 2 * math.Pi
		if trial%5 == 0 {
			mean = math.NaN() // suppression disabled
		}
		checkPhaseVariation(t, phases, mean)
	}
}

// TestSmoothedKernelsMatchComposition pins the fused width-3 moving
// average and its total-variation and net-change accumulators against
// MovingAverage followed by TotalVariation and NetChange, with no
// unwrapping in the reference. A NaN mean disables the suppression and
// the samples lie in [−1.5, 1.5), so no step exceeds π and the unwrap
// leaves them as they are. Runs cover lengths 0 to 59, NaN samples,
// leading and trailing NaN and all-NaN runs.
func TestSmoothedKernelsMatchComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		x := make([]float64, rng.Intn(60))
		nanRate := 1 + rng.Intn(10)
		for i := range x {
			x[i] = (rng.Float64() - 0.5) * 3
			if rng.Intn(nanRate) == 0 {
				x[i] = math.NaN()
			}
		}
		sm := MovingAverage(x, 3)
		wantTV, wantNet := TotalVariation(sm), NetChange(sm)
		tv, net := PhaseVariation(x, math.NaN())
		if !sameFloat(tv, wantTV) || !sameFloat(net, wantNet) {
			t.Fatalf("trial %d: PhaseVariation(%v, NaN) = (%v, %v), MovingAverage then TotalVariation and NetChange (%v, %v)",
				trial, x, tv, net, wantTV, wantNet)
		}
	}
}

// FuzzPhaseVariationMatchesComposition checks PhaseVariation against its
// oracle, and CircularMeanStd against CircularMean and CircularStd, on
// decoded tag runs. An even first byte decodes two bytes a sample,
// scaled onto [−π, 3π) with NaN for every multiple of 97; an odd one
// decodes raw float64 bits, eight bytes a sample, so ±Inf, huge angles
// and NaNs reach the kernel too. nanMean disables the suppression.
func FuzzPhaseVariationMatchesComposition(f *testing.F) {
	f.Add([]byte{}, 1.0, false)
	f.Add([]byte{0, 1, 2}, 0.5, false)
	f.Add([]byte{0, 1, 2, 0, 0}, 0.5, true)
	f.Add([]byte{0, 10, 0, 200, 0, 0, 97}, 3.0, false)
	f.Add([]byte{2, 0, 0, 255, 255, 128, 0, 64, 0, 1, 2, 3, 4}, 6.2, false)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 248, 127, 24, 45, 68, 84, 251, 33, 9, 64}, math.NaN(), false)
	f.Fuzz(func(t *testing.T, data []byte, mean float64, nanMean bool) {
		if nanMean {
			mean = math.NaN()
		}
		var phases []float64
		if len(data) > 0 && data[0]%2 == 1 {
			for data = data[1:]; len(data) >= 8; data = data[8:] {
				phases = append(phases, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else if len(data) > 0 {
			for data = data[1:]; len(data) >= 2; data = data[2:] {
				k := binary.BigEndian.Uint16(data)
				v := float64(k)/65536*4*math.Pi - math.Pi
				if k%97 == 0 {
					v = math.NaN()
				}
				phases = append(phases, v)
			}
		}
		checkPhaseVariation(t, phases, mean)
	})
}

// TestWrapNearMatchesWrap checks the fast wrap PhaseVariation applies to
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
