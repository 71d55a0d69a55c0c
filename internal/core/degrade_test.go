package core

import (
	"math"
	"testing"
	"time"

	"rfipad/internal/stroke"
)

func TestInterpolateDeadFillsFromLiveNeighbors(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	vals := make([]float64, 25)
	// Bright vertical line through column 2.
	for r := 0; r < 5; r++ {
		vals[r*5+2] = 10
	}
	dead := make([]bool, 25)
	dead[2*5+2] = true // centre of the line
	vals[2*5+2] = 0    // dead cell scored nothing

	out := InterpolateDead(g, vals, dead)
	// Neighbors: up 10, down 10, left 0, right 0 → mean 5.
	if got := out[2*5+2]; math.Abs(got-5) > 1e-12 {
		t.Errorf("interpolated centre = %v, want 5", got)
	}
	// Live cells untouched, input not modified.
	if out[1*5+2] != 10 || vals[2*5+2] != 0 {
		t.Error("interpolation modified live cells or the input")
	}
}

func TestInterpolateDeadDiagonalFallback(t *testing.T) {
	g := Grid{Rows: 3, Cols: 3}
	vals := []float64{0, 0, 0, 0, 0, 0, 0, 0, 8}
	dead := make([]bool, 9)
	// Corner (0,0) dead with both 4-neighbors dead too: only the
	// diagonal (1,1) is live.
	dead[0], dead[1], dead[3] = true, true, true
	vals[4] = 6
	out := InterpolateDead(g, vals, dead)
	if out[0] != 6 {
		t.Errorf("diagonal fallback = %v, want 6", out[0])
	}
}

func TestInterpolateDeadNoOp(t *testing.T) {
	g := Grid{Rows: 2, Cols: 2}
	vals := []float64{1, 2, 3, 4}
	if got := InterpolateDead(g, vals, nil); &got[0] != &vals[0] {
		t.Error("nil dead mask should return the input unchanged")
	}
	if got := InterpolateDead(g, vals, make([]bool, 4)); &got[0] != &vals[0] {
		t.Error("all-live mask should return the input unchanged")
	}
}

func TestCalibrateFlagsDeadTag(t *testing.T) {
	const n = 25
	readings := synthStatic(n, 100, evenCentres(n), constSigmas(n, 0.03), 3)
	var degraded []Reading
	for _, r := range readings {
		if r.TagIndex == 7 {
			continue // tag 7 never reads: detached
		}
		degraded = append(degraded, r)
	}
	cal, err := Calibrate(degraded, n)
	if err != nil {
		t.Fatalf("one dead tag must not fail calibration: %v", err)
	}
	if !cal.IsDead(7) || cal.DeadCount() != 1 {
		t.Errorf("dead flags = %v (count %d), want tag 7 only", cal.Dead, cal.DeadCount())
	}
	if w := cal.Weight(7); w != 0 {
		t.Errorf("dead tag weight = %v, want 0", w)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += cal.Weight(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("live weights sum to %v, want 1", sum)
	}
}

func TestCalibrateTooDegraded(t *testing.T) {
	const n = 25
	readings := synthStatic(n, 100, evenCentres(n), constSigmas(n, 0.03), 4)
	var degraded []Reading
	for _, r := range readings {
		if r.TagIndex < 7 { // 7 of 25 dead = 28% > 25%
			continue
		}
		degraded = append(degraded, r)
	}
	if _, err := Calibrate(degraded, n); err == nil {
		t.Error("28% dead grid should fail calibration")
	}
}

func TestDisturbanceMapSkipsDeadTagReads(t *testing.T) {
	const n = 4
	cal := UniformCalibration(n)
	cal.Dead[1] = true
	// Tag 1 has sporadic garbage reads (an occluded tag flickering).
	var readings []Reading
	for j := 0; j < 20; j++ {
		readings = append(readings, Reading{TagIndex: 0, Time: time.Duration(j) * 10 * time.Millisecond, Phase: 0.1})
		readings = append(readings, Reading{TagIndex: 1, Time: time.Duration(j) * 10 * time.Millisecond, Phase: float64(j % 5)})
	}
	vals := DisturbanceMap(*batchOf(readings), cal, DisturbanceOptions{})
	if vals[1] != 0 {
		t.Errorf("dead tag scored %v, want 0 (interpolation happens downstream)", vals[1])
	}
}

func TestByTagDropsDuplicateTimestamps(t *testing.T) {
	rs := []Reading{
		{TagIndex: 0, Time: 10 * time.Millisecond, Phase: 1},
		{TagIndex: 0, Time: 20 * time.Millisecond, Phase: 2},
		{TagIndex: 0, Time: 10 * time.Millisecond, Phase: 1}, // replayed
		{TagIndex: 1, Time: 10 * time.Millisecond, Phase: 3}, // other tag, same instant: kept
	}
	split := splitOf(rs, 2)
	if n := len(split.run(0).times); n != 2 {
		t.Errorf("tag 0 series = %d, want 2 after dedup", n)
	}
	if n := len(split.run(1).times); n != 1 {
		t.Errorf("tag 1 series = %d, want 1", n)
	}
}

func TestIngestToleratesDuplicatesAndReorder(t *testing.T) {
	cal := UniformCalibration(4)
	rec := NewRecognizer(NewPipeline(Grid{Rows: 2, Cols: 2}, cal), nil)
	mk := func(tag int, ms int) Reading {
		return Reading{TagIndex: tag, Time: time.Duration(ms) * time.Millisecond, Phase: 0.5}
	}
	ingestOne(rec, mk(0, 10))
	ingestOne(rec, mk(1, 30))
	ingestOne(rec, mk(0, 20)) // late
	ingestOne(rec, mk(1, 30)) // exact duplicate
	ingestOne(rec, mk(0, 30)) // same instant, different tag: kept
	if rec.hist.Len() != 4 {
		t.Fatalf("buffer holds %d readings, want 4 (duplicate dropped)", rec.hist.Len())
	}
	for i := 1; i < rec.hist.Len(); i++ {
		if rec.hist.Times[i] < rec.hist.Times[i-1] {
			t.Fatal("buffer not time-sorted after out-of-order ingest")
		}
	}
	if rec.hist.TagIndices[1] != 0 || rec.hist.Times[1] != 20*time.Millisecond {
		t.Errorf("late reading not inserted in place: %+v", rec.hist)
	}
}

func TestRecognizeWindowInterpolatesDeadCell(t *testing.T) {
	// A synthetic vertical stroke on a 5×5 grid whose middle tag is
	// dead: readings sweep phase disturbance down column 2 while the
	// dead tag stays silent. The interpolated image must keep the
	// stroke a single vertical line.
	g := Grid{Rows: 5, Cols: 5}
	cal := UniformCalibration(g.NumTags())
	deadIdx := 2*5 + 2
	cal.Dead[deadIdx] = true

	var readings []Reading
	for j := 0; j < 100; j++ {
		t0 := time.Duration(j) * 10 * time.Millisecond
		for r := 0; r < 5; r++ {
			idx := r*5 + 2
			if idx == deadIdx {
				continue
			}
			// Each column-2 tag wobbles hard; the rest sit still.
			readings = append(readings, Reading{TagIndex: idx, Time: t0, Phase: float64(j%7) * 0.4})
		}
		for _, idx := range []int{0, 4, 20, 24, 6, 8} {
			readings = append(readings, Reading{TagIndex: idx, Time: t0, Phase: 0.02})
		}
	}
	p := NewPipeline(g, cal)
	res := p.RecognizeWindow(*batchOf(readings))
	if !res.Ok {
		t.Fatal("degraded window did not classify")
	}
	if res.Motion.Shape != stroke.Vertical {
		t.Errorf("shape = %v, want Vertical\nimage:\n%s\nmask:\n%s",
			res.Motion.Shape, res.Image.String(), MaskString(g, res.Mask))
	}
	if !res.Mask[deadIdx] {
		t.Errorf("dead cell not bridged into the foreground\nmask:\n%s", MaskString(g, res.Mask))
	}
}
