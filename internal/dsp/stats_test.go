package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMeanStdRMS(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Std(x); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("Std = %v", got)
	}
	if got := RMS([]float64{3, 4}); !almostEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) || !math.IsNaN(RMS(nil)) {
		t.Error("empty inputs should give NaN")
	}
	if got := Std([]float64{9}); got != 0 {
		t.Errorf("Std single = %v", got)
	}
	// NaNs ignored.
	if got := Mean([]float64{1, math.NaN(), 3}); !almostEq(got, 2, 1e-12) {
		t.Errorf("Mean with NaN = %v", got)
	}
}

func TestCircularMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"simple", []float64{0.1, 0.2, 0.3}, 0.2},
		{"straddles-zero", []float64{6.2, 0.1}, Wrap((6.2 + 0.1 + 2*math.Pi) / 2)},
		{"at-pi", []float64{math.Pi - 0.1, math.Pi + 0.1}, math.Pi},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CircularMean(tt.in)
			// Compare on the circle.
			if !almostEq(math.Abs(WrapSigned(got-tt.want)), 0, 1e-9) {
				t.Errorf("CircularMean = %v, want %v", got, tt.want)
			}
		})
	}
	if !math.IsNaN(CircularMean(nil)) {
		t.Error("CircularMean(nil) should be NaN")
	}
}

func TestCircularStd(t *testing.T) {
	if got := CircularStd([]float64{1.3, 1.3, 1.3}); !almostEq(got, 0, 1e-9) {
		t.Errorf("concentrated CircularStd = %v", got)
	}
	// Spread samples have larger circular std than tight ones.
	tight := CircularStd([]float64{1.0, 1.05, 0.95})
	wide := CircularStd([]float64{0.0, 1.5, 3.0})
	if tight >= wide {
		t.Errorf("tight %v >= wide %v", tight, wide)
	}
	if !math.IsNaN(CircularStd(nil)) {
		t.Error("CircularStd(nil) should be NaN")
	}
	// Uniformly spread over circle -> resultant ~0 -> very large (the
	// resultant never reaches exactly zero in floating point).
	if got := CircularStd([]float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}); got < 5 {
		t.Errorf("uniform CircularStd = %v, want large", got)
	}
}

func TestCircularStdMatchesLinearForSmallSpread(t *testing.T) {
	// For tightly clustered angles, circular std ≈ linear std.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		centre := r.Float64() * 2 * math.Pi
		x := make([]float64, 100)
		lin := make([]float64, 100)
		for i := range x {
			d := r.NormFloat64() * 0.05
			lin[i] = d
			x[i] = Wrap(centre + d)
		}
		cs := CircularStd(x)
		ls := Std(lin)
		if math.Abs(cs-ls) > 0.01 {
			t.Fatalf("trial %d: circular %v vs linear %v", trial, cs, ls)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	got1 := MovingAverage(x, 1)
	for i := range x {
		if got1[i] != x[i] {
			t.Error("width 1 should copy")
		}
	}
}

func TestMedianMinMaxNormalize(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	lo, hi := MinMax([]float64{5, math.NaN(), -2, 3})
	if lo != -2 || hi != 5 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	n := Normalize([]float64{10, 20, 30})
	if n[0] != 0 || n[2] != 1 || !almostEq(n[1], 0.5, 1e-12) {
		t.Errorf("Normalize = %v", n)
	}
	nc := Normalize([]float64{7, 7})
	if nc[0] != 0 || nc[1] != 0 {
		t.Errorf("Normalize constant = %v", nc)
	}
	nn := Normalize([]float64{1, math.NaN(), 2})
	if !math.IsNaN(nn[1]) {
		t.Error("Normalize should preserve NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, math.NaN()})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	tests := []struct {
		v, want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{9, 1},
	}
	for _, tt := range tests {
		if got := c.P(tt.v); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	empty := NewCDF(nil)
	if got := empty.P(3); got != 0 {
		t.Errorf("empty P = %v", got)
	}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty Quantile should be NaN")
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.NormFloat64()
	}
	c := NewCDF(samples)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := c.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("Quantile not monotone at q=%v", q)
		}
		prev = v
		// P and Quantile are approximate inverses.
		if p := c.P(v); p < q-0.02 {
			t.Fatalf("P(Quantile(%v)) = %v too small", q, p)
		}
	}
}

// TestQuantileSelectMatchesSortProperty pins selection to the sorting
// path bit for bit: on random inputs with heavy ties, presorted and
// reversed runs, QuantileSelect equals slices.Sort + QuantileSorted,
// only permutes its input, and yields NaN only for empty input. Signed
// zeros are left out: sort keeps ±0 in input order, so no selection
// can promise which of the two a zero-valued quantile carries.
func TestQuantileSelectMatchesSortProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(301)
		pool := 1 + r.Intn(6)
		x := make([]float64, n)
		for i := range x {
			switch r.Intn(3) {
			case 0:
				x[i] = float64(r.Intn(pool)) // ties, including zeros
			case 1:
				x[i] = r.NormFloat64()
			default:
				x[i] = r.ExpFloat64() * 1e-3
			}
		}
		switch trial % 4 {
		case 1:
			slices.Sort(x)
		case 2:
			slices.Sort(x)
			slices.Reverse(x)
		}
		sorted := slices.Clone(x)
		slices.Sort(sorted)
		for _, q := range []float64{0, 0.25, 0.5, 1, r.Float64()} {
			work := slices.Clone(x)
			got := QuantileSelect(work, q)
			want := QuantileSorted(sorted, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d n=%d q=%v: select %v (%#x), sort %v (%#x)",
					trial, n, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if math.IsNaN(got) != (n == 0) {
				t.Fatalf("trial %d n=%d q=%v: NaN = %v", trial, n, q, math.IsNaN(got))
			}
			slices.Sort(work)
			if !slices.Equal(work, sorted) {
				t.Fatalf("trial %d n=%d q=%v: selection changed the multiset", trial, n, q)
			}
		}
	}
}
