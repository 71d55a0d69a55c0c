package core

import (
	"math/rand"
	"testing"
	"time"
)

// syntheticQuiet produces a quiet (no-hand) reading stream covering
// [from, to): every tag reports each step with small phase noise around
// its own static mean.
func syntheticQuiet(grid Grid, from, to, step time.Duration, rng *rand.Rand) []Reading {
	n := grid.NumTags()
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64() * 6.28
	}
	var out []Reading
	for t := from; t < to; t += step {
		for i := 0; i < n; i++ {
			out = append(out, Reading{
				TagIndex: i,
				Time:     t + time.Duration(i)*time.Millisecond/10,
				Phase:    base[i] + rng.NormFloat64()*0.01,
				RSS:      -55,
			})
		}
	}
	return out
}

// TestRecognizerTrimBoundsAndReusesBuffer pins the history-trim
// contract on a long quiet stream: the retained window stays bounded
// near historyKeep, every trim lands on a frame boundary (the cache's
// frame grid must never shift), and once the buffer reaches its
// high-water capacity, compaction reuses the backing array instead of
// re-growing a fresh one.
func TestRecognizerTrimBoundsAndReusesBuffer(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(5))
	static := syntheticQuiet(grid, 0, 3*time.Second, 10*time.Millisecond, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecognizer(NewPipeline(grid, cal), nil)

	stream := syntheticQuiet(grid, 0, 60*time.Second, 10*time.Millisecond, rng)
	var capAt30 int
	for _, rd := range stream {
		ingestOne(rec, rd)
		if capAt30 == 0 && rd.Time >= 30*time.Second {
			capAt30 = cap(rec.hist.Times)
		}
	}

	if rec.bufStart == 0 {
		t.Fatal("60 s of quiet stream never trimmed the buffer")
	}
	if rec.bufStart%rec.seg.FrameLen != 0 {
		t.Errorf("bufStart %v is not frame-aligned (frame %v)", rec.bufStart, rec.seg.FrameLen)
	}
	// The live window should hover near historyKeep; a couple of extra
	// seconds of slack covers trim cadence.
	live := rec.hist.Times[rec.head:]
	span := rec.now - rec.bufStart
	if limit := historyKeep + 4*time.Second; span > limit {
		t.Errorf("retained window %v exceeds %v", span, limit)
	}
	for _, at := range live {
		if at < rec.bufStart {
			t.Fatalf("live window holds reading at %v before bufStart %v", at, rec.bufStart)
		}
	}
	if got := cap(rec.hist.Times); got != capAt30 {
		t.Errorf("buffer capacity kept growing after warm-up: %d at 30s, %d at 60s — compaction is not reusing the backing array", capAt30, got)
	}

	// windowRange must agree with the trimmed state (end is exclusive,
	// so nudge past the newest reading).
	lo, hi := rec.windowRange(rec.bufStart, rec.now+time.Millisecond)
	if lo != rec.head || hi-lo != len(live) {
		t.Errorf("window range over the full span is [%d, %d), live window is [%d, %d)", lo, hi, rec.head, rec.head+len(live))
	}
}

// TestRecognizerTrimToAlignsAndCompacts drives trimTo directly: a cut
// inside the history advances the head, compacts once more than two
// thirds of the array is dead, and refuses to move backwards.
func TestRecognizerTrimToAlignsAndCompacts(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(6))
	static := syntheticQuiet(grid, 0, 3*time.Second, 10*time.Millisecond, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecognizer(NewPipeline(grid, cal), nil)
	for _, rd := range syntheticQuiet(grid, 0, 10*time.Second, 10*time.Millisecond, rng) {
		ingestOne(rec, rd)
	}

	rec.trimTo(6*time.Second + 50*time.Millisecond)
	if rec.bufStart != 6*time.Second {
		t.Errorf("cut not aligned down to a frame boundary: bufStart %v, want 6s", rec.bufStart)
	}
	if rec.head != 0 {
		// A cut past two thirds must have compacted.
		if 3*rec.head <= 2*rec.hist.Len() {
			t.Logf("head %d of %d retained without compaction", rec.head, rec.hist.Len())
		} else {
			t.Errorf("head %d of %d — compaction threshold missed", rec.head, rec.hist.Len())
		}
	}
	before := rec.bufStart
	rec.trimTo(2 * time.Second) // backwards: must be a no-op
	if rec.bufStart != before {
		t.Errorf("backwards trim moved bufStart from %v to %v", before, rec.bufStart)
	}
}
