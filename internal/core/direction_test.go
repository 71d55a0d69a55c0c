package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/geo"
	"rfipad/internal/stroke"
)

// synthSweepRSS builds RSS series for a hand visiting the given tags in
// order: each visited tag shows a trough at its visit time; other tags
// stay flat.
func synthSweepRSS(grid Grid, order []int, visitGap time.Duration, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(len(order)+2) * visitGap
	visit := map[int]time.Duration{}
	for k, i := range order {
		visit[i] = time.Duration(k+1) * visitGap
	}
	var out []Reading
	for tm := time.Duration(0); tm < total; tm += 25 * time.Millisecond {
		for i := 0; i < grid.NumTags(); i++ {
			rss := -45 + rng.NormFloat64()*0.4
			if at, ok := visit[i]; ok {
				d := (tm - at).Seconds() / 0.12
				rss -= 9 * math.Exp(-d*d)
			}
			out = append(out, Reading{TagIndex: i, Time: tm, RSS: rss, Phase: 1})
		}
	}
	return out
}

// troughsOf splits readings by tag the way a stroke window is split and
// runs the trough estimator over the given tags.
func troughsOf(readings []Reading, numTags int, tags []int) []TagTrough {
	var sc DisturbanceScratch
	sc.split.split(*batchOf(readings), numTags)
	return sc.tagTroughs(tags)
}

// directionOf estimates the travel direction across fgTags from the
// order of their RSS troughs, as the direction stage does.
func directionOf(readings []Reading, grid Grid, fgTags []int) (geo.Vec2, []TagTrough, bool) {
	troughs := troughsOf(readings, grid.NumTags(), fgTags)
	dir, ok := fitDirection(grid, troughs)
	return dir, troughs, ok
}

// directionAngleDiff measures how far two unit directions disagree, in
// radians.
func directionAngleDiff(a, b geo.Vec2) float64 {
	dot := a.Dot(b)
	dot = math.Max(-1, math.Min(1, dot))
	return math.Acos(dot)
}

func TestFindTagTroughsOrdering(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	order := []int{2, 7, 12, 17, 22} // down column 2... visiting row 0 upward
	readings := synthSweepRSS(g, order, 300*time.Millisecond, 1)
	troughs := troughsOf(readings, g.NumTags(), order)
	if len(troughs) != 5 {
		t.Fatalf("troughs = %d, want 5", len(troughs))
	}
	for k, tr := range troughs {
		if tr.TagIndex != order[k] {
			t.Errorf("trough %d on tag %d, want %d", k, tr.TagIndex, order[k])
		}
	}
	// Out-of-range indices are skipped silently.
	if got := troughsOf(readings, g.NumTags(), []int{-1, 99}); len(got) != 0 {
		t.Errorf("bogus tags produced %d troughs", len(got))
	}
}

func TestEstimateDirectionUpAndDown(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	col := []int{2, 7, 12, 17, 22} // indices bottom row → top row
	// Visiting in this order means moving +y (upward).
	up := synthSweepRSS(g, col, 300*time.Millisecond, 2)
	dir, _, ok := directionOf(up, g, col)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y < 0.9 {
		t.Errorf("upward sweep direction = %v", dir)
	}
	// Reverse order → downward.
	rev := []int{22, 17, 12, 7, 2}
	down := synthSweepRSS(g, rev, 300*time.Millisecond, 3)
	dir, _, ok = directionOf(down, g, col)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y > -0.9 {
		t.Errorf("downward sweep direction = %v", dir)
	}
}

func TestEstimateDirectionDiagonal(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	diag := []int{0, 6, 12, 18, 24} // bottom-left → top-right
	readings := synthSweepRSS(g, diag, 250*time.Millisecond, 4)
	dir, troughs, ok := directionOf(readings, g, diag)
	if !ok {
		t.Fatal("no direction")
	}
	want := geo.V2(1, 1).Unit()
	if directionAngleDiff(dir, want) > 0.3 {
		t.Errorf("diagonal direction = %v, want ≈%v", dir, want)
	}
	if len(troughs) < 3 {
		t.Errorf("troughs = %d", len(troughs))
	}
}

func TestEstimateDirectionInsufficientTroughs(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	// Flat RSS everywhere: no troughs, no direction.
	rng := rand.New(rand.NewSource(5))
	var readings []Reading
	for tm := time.Duration(0); tm < 2*time.Second; tm += 30 * time.Millisecond {
		for i := 0; i < 25; i++ {
			readings = append(readings, Reading{TagIndex: i, Time: tm, RSS: -45 + rng.NormFloat64()*0.3})
		}
	}
	if _, _, ok := directionOf(readings, g, []int{2, 7, 12}); ok {
		t.Error("flat RSS should not yield a direction")
	}
}

func TestDirectionFor(t *testing.T) {
	tests := []struct {
		shape stroke.Shape
		dir   geo.Vec2
		want  stroke.Direction
	}{
		{stroke.Horizontal, geo.V2(1, 0), stroke.Forward},
		{stroke.Horizontal, geo.V2(-1, 0.1), stroke.Reverse},
		{stroke.Vertical, geo.V2(0, -1), stroke.Forward},
		{stroke.Vertical, geo.V2(0.1, 1), stroke.Reverse},
		{stroke.SlashUp, geo.V2(-0.7, -0.7), stroke.Forward},
		{stroke.SlashUp, geo.V2(0.7, 0.7), stroke.Reverse},
		{stroke.SlashDown, geo.V2(0.7, -0.7), stroke.Forward},
		{stroke.SlashDown, geo.V2(-0.7, 0.7), stroke.Reverse},
		{stroke.ArcLeft, geo.V2(0.2, -0.9), stroke.Forward},
		{stroke.ArcLeft, geo.V2(0.2, 0.9), stroke.Reverse},
		{stroke.ArcRight, geo.V2(-0.2, -0.9), stroke.Forward},
	}
	for _, tt := range tests {
		got, ok := DirectionFor(tt.shape, tt.dir)
		if !ok || got != tt.want {
			t.Errorf("DirectionFor(%v, %v) = %v,%v, want %v", tt.shape, tt.dir, got, ok, tt.want)
		}
	}
	if _, ok := DirectionFor(stroke.Click, geo.V2(1, 0)); ok {
		t.Error("click should have no direction")
	}
	if _, ok := DirectionFor(stroke.Horizontal, geo.V2(0, 0)); ok {
		t.Error("zero vector should fail")
	}
}

func TestArcEndpointsDirection(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	troughs := []TagTrough{
		{TagIndex: 23, At: 0},                      // (4,3): top
		{TagIndex: 10, At: 500 * time.Millisecond}, // (2,0): left middle
		{TagIndex: 3, At: time.Second},             // (0,3): bottom
	}
	dir, ok := arcEndpointsDirection(g, troughs)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y >= 0 {
		t.Errorf("top→bottom arc direction = %v", dir)
	}
	if _, ok := arcEndpointsDirection(g, troughs[:1]); ok {
		t.Error("single trough should fail")
	}
	same := []TagTrough{{TagIndex: 5, At: 0}, {TagIndex: 5, At: time.Second}}
	if _, ok := arcEndpointsDirection(g, same); ok {
		t.Error("zero displacement should fail")
	}
}
