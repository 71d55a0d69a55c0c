package dsp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// series is one timed series as the parallel columns FindTrough takes.
type series struct {
	times []time.Duration
	vals  []float64
}

// mkSeries samples f every 10 ms.
func mkSeries(n int, f func(i int) float64) series {
	s := series{make([]time.Duration, n), make([]float64, n)}
	for i := range s.vals {
		s.times[i] = time.Duration(i*10) * time.Millisecond
		s.vals[i] = f(i)
	}
	return s
}

// findTrough runs FindTrough over a series with a fresh scratch.
func findTrough(s series, smoothWidth int, minDepth float64) (Trough, bool) {
	return FindTrough(new(TroughScratch), s.times, s.vals, smoothWidth, minDepth)
}

func TestFindTroughLocatesDip(t *testing.T) {
	// Flat at -41 dBm with a dip to -49 centred at sample 50.
	s := mkSeries(100, func(i int) float64 {
		d := float64(i-50) / 6
		return -41 - 8*math.Exp(-d*d)
	})
	tr, ok := findTrough(s, 5, 2)
	if !ok {
		t.Fatal("no trough found")
	}
	want := 500 * time.Millisecond
	if diff := (tr.T - want); diff < -60*time.Millisecond || diff > 60*time.Millisecond {
		t.Errorf("trough at %v, want ≈%v", tr.T, want)
	}
	if tr.Depth < 6 {
		t.Errorf("depth %v, want ≈8", tr.Depth)
	}
}

func TestFindTroughRejectsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := mkSeries(100, func(i int) float64 { return -41 + r.NormFloat64()*0.3 })
	if _, ok := findTrough(s, 5, 2); ok {
		t.Error("found trough in flat noise")
	}
}

func TestFindTroughNoisyDip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := mkSeries(200, func(i int) float64 {
		d := float64(i-120) / 10
		return -41 - 10*math.Exp(-d*d) + r.NormFloat64()*0.8
	})
	tr, ok := findTrough(s, 7, 3)
	if !ok {
		t.Fatal("no trough found in noisy dip")
	}
	want := 1200 * time.Millisecond
	if diff := tr.T - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("trough at %v, want ≈%v", tr.T, want)
	}
}

func TestFindTroughOrderingTwoTags(t *testing.T) {
	// Two tags passed in sequence: troughs must come out in pass order.
	tagA := mkSeries(200, func(i int) float64 {
		d := float64(i-60) / 8
		return -41 - 9*math.Exp(-d*d)
	})
	tagB := mkSeries(200, func(i int) float64 {
		d := float64(i-140) / 8
		return -43 - 9*math.Exp(-d*d)
	})
	ta, okA := findTrough(tagA, 5, 2)
	tb, okB := findTrough(tagB, 5, 2)
	if !okA || !okB {
		t.Fatal("troughs not found")
	}
	if ta.T >= tb.T {
		t.Errorf("ordering wrong: A at %v, B at %v", ta.T, tb.T)
	}
}

func TestFindTroughTooFewSamples(t *testing.T) {
	if _, ok := findTrough(mkSeries(2, func(int) float64 { return 0 }), 3, 1); ok {
		t.Error("found trough with 2 samples")
	}
	if _, ok := findTrough(series{}, 3, 1); ok {
		t.Error("found trough with no samples")
	}
}

// TestFindTroughReusedScratchMatchesFresh runs one scratch across
// series of growing and shrinking length, with NaN samples: every
// result must equal a fresh scratch's, and the median it takes by
// selection must equal Median bit for bit.
func TestFindTroughReusedScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc TroughScratch
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(120)
		centre := rng.Intn(n)
		s := mkSeries(n, func(i int) float64 {
			d := float64(i-centre) / 6
			// Quantized to 0.5 dB like a reader's report, so the median
			// often falls on ties.
			return math.Round(2*(-41-8*math.Exp(-d*d)+rng.NormFloat64())) / 2
		})
		if trial%4 == 0 {
			s.vals[rng.Intn(n)] = math.NaN()
		}
		got, okGot := FindTrough(&sc, s.times, s.vals, 5, 2)
		want, okWant := findTrough(s, 5, 2)
		if okGot != okWant || got.T != want.T || math.Float64bits(got.V) != math.Float64bits(want.V) ||
			math.Float64bits(got.Depth) != math.Float64bits(want.Depth) {
			t.Fatalf("trial %d: reused scratch gave %+v/%v, fresh gave %+v/%v", trial, got, okGot, want, okWant)
		}
		var finite []float64
		for _, v := range s.vals {
			if !math.IsNaN(v) {
				finite = append(finite, v)
			}
		}
		if sel, med := QuantileSelect(finite, 0.5), Median(s.vals); math.Float64bits(sel) != math.Float64bits(med) {
			t.Fatalf("trial %d: selected median %v, Median %v", trial, sel, med)
		}
	}
}
