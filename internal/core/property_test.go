package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rfipad/internal/dsp"
	"rfipad/internal/stroke"
)

// randomStream builds an arbitrary (but well-formed) reading stream
// from a fuzz seed.
func randomStream(seed int64, numTags int, dur time.Duration) []Reading {
	rng := rand.New(rand.NewSource(seed))
	var out []Reading
	for tm := time.Duration(0); tm < dur; tm += time.Duration(20+rng.Intn(60)) * time.Millisecond {
		i := rng.Intn(numTags)
		out = append(out, Reading{
			TagIndex: i,
			Time:     tm,
			Phase:    rng.Float64() * 2 * math.Pi,
			RSS:      -60 + rng.Float64()*30,
		})
	}
	return out
}

func TestSegmenterInvariantsProperty(t *testing.T) {
	// For any stream: spans are sorted, non-overlapping, inside the
	// capture, at least minSpan long, and separated by > mergeGap.
	f := func(seed int64) bool {
		cal := UniformCalibration(9)
		seg := NewSegmenter()
		dur := 6 * time.Second
		spans := seg.Segment(batchOf(randomStream(seed, 9, dur)), cal, 0, dur)
		prevEnd := time.Duration(-1)
		for _, sp := range spans {
			if sp.Start < 0 || sp.End > dur || sp.End <= sp.Start {
				return false
			}
			if sp.Duration() < minSpan {
				return false
			}
			if prevEnd >= 0 && sp.Start-prevEnd <= mergeGap {
				return false
			}
			prevEnd = sp.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDisturbanceMapNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		cal := UniformCalibration(9)
		vals := DisturbanceMap(*batchOf(randomStream(seed, 9, 2*time.Second)), cal, DisturbanceOptions{})
		for _, v := range vals {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return len(vals) == 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestClassifyShapeNeverPanicsProperty(t *testing.T) {
	// Any mask over any grid yields either !Ok or a shape within the
	// vocabulary and a box inside the unit square.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(6)
		cols := 2 + rng.Intn(6)
		grid := Grid{Rows: rows, Cols: cols}
		mask := make([]bool, grid.NumTags())
		vals := make([]float64, grid.NumTags())
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
			vals[i] = rng.Float64() * 10
		}
		res := ClassifyShape(grid, vals, mask)
		if !res.Ok {
			for _, m := range mask {
				if m {
					return false // foreground present but unclassified
				}
			}
			return true
		}
		if res.Shape < stroke.Click || res.Shape > stroke.ArcRight {
			return false
		}
		b := res.Box
		return b.X0 >= 0 && b.Y0 >= 0 && b.X1 <= 1 && b.Y1 <= 1 && b.X1 >= b.X0 && b.Y1 >= b.Y0 &&
			res.CenterX >= 0 && res.CenterX <= 1 && res.CenterY >= 0 && res.CenterY <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLargestComponentProperty(t *testing.T) {
	// The filtered mask is a subset of the input and, if the input had
	// any foreground, non-empty and fully 8-connected.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		grid := Grid{Rows: 5, Cols: 5}
		mask := make([]bool, 25)
		any := false
		for i := range mask {
			mask[i] = rng.Intn(4) == 0
			any = any || mask[i]
		}
		out := LargestComponent(grid, mask, nil)
		count := 0
		for i := range out {
			if out[i] && !mask[i] {
				return false // not a subset
			}
			if out[i] {
				count++
			}
		}
		if any && count == 0 {
			return false
		}
		if !any {
			return count == 0
		}
		// Connectivity: flood fill from the first on-cell covers all.
		start := -1
		for i, m := range out {
			if m {
				start = i
				break
			}
		}
		seen := map[int]bool{start: true}
		stack := []int{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, c := grid.RowCol(cur)
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					nr, nc := r+dr, c+dc
					if nr < 0 || nr >= 5 || nc < 0 || nc >= 5 {
						continue
					}
					ni := nr*5 + nc
					if out[ni] && !seen[ni] {
						seen[ni] = true
						stack = append(stack, ni)
					}
				}
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecognizerIngestMonotoneTime(t *testing.T) {
	// Feeding a quiet random stream produces no events and never
	// panics, regardless of timing jitter.
	cal := UniformCalibration(25)
	p := NewPipeline(Grid{Rows: 5, Cols: 5}, cal)
	rec := NewRecognizer(p, nil)
	rng := rand.New(rand.NewSource(5))
	tm := time.Duration(0)
	for i := 0; i < 500; i++ {
		tm += time.Duration(rng.Intn(40)) * time.Millisecond
		evs := ingestOne(rec, Reading{
			TagIndex: rng.Intn(25),
			Time:     tm,
			Phase:    dsp.Wrap(1 + rng.NormFloat64()*0.02),
			RSS:      -45,
		})
		if len(evs) != 0 {
			t.Fatalf("quiet stream emitted %d events at %v", len(evs), tm)
		}
	}
	if evs := rec.Flush(tm); len(evs) != 0 {
		t.Fatalf("flush emitted %d events", len(evs))
	}
}
