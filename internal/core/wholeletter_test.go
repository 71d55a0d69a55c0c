package core

import (
	"testing"

	"rfipad/internal/grammar"
)

func TestTemplatesSelfConsistent(t *testing.T) {
	// Every letter's own rasterized template must be its best match —
	// the templates are mutually distinguishable at 5×5 resolution for
	// most of the alphabet; letters whose canonical renderings
	// genuinely collide at this resolution (same cells lit) are
	// tolerated as long as they are few.
	grid := Grid{Rows: 5, Cols: 5}
	c := NewWholeLetterClassifier(grid)
	collisions := 0
	for _, l := range grammar.Alphabet() {
		img := rasterizeLetter(grid, l)
		ch, score, ok := c.Match(img)
		if !ok {
			t.Fatalf("%q: degenerate template", l.Char)
		}
		if score < 0.5 {
			t.Errorf("%q: self-correlation %v too low", l.Char, score)
		}
		if ch != l.Char {
			collisions++
			t.Logf("%q best-matched %q (resolution collision)", l.Char, ch)
		}
	}
	if collisions > 6 {
		t.Errorf("%d template collisions; the alphabet is not separable", collisions)
	}
}

func TestMatchDegenerate(t *testing.T) {
	c := NewWholeLetterClassifier(Grid{Rows: 5, Cols: 5})
	if _, _, ok := c.Match(make([]float64, 25)); ok {
		t.Error("constant image should not match")
	}
}

func TestRankingOrdersByCorrelation(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	c := NewWholeLetterClassifier(grid)
	l, _ := grammar.Lookup('L')
	img := rasterizeLetter(grid, l)
	ranking := c.Ranking(img)
	if len(ranking) != 26 {
		t.Fatalf("ranking size = %d", len(ranking))
	}
	if ranking[0] != 'L' {
		t.Errorf("top rank = %q, want L", ranking[0])
	}
}

func TestCompositeImageSumsSpans(t *testing.T) {
	cal := UniformCalibration(4)
	p := NewPipeline(Grid{Rows: 2, Cols: 2}, cal)
	readings := []Reading{
		{TagIndex: 0, Time: 0, Phase: 0.1},
		{TagIndex: 0, Time: 50e6, Phase: 1.1},
		{TagIndex: 0, Time: 100e6, Phase: 0.1},
		{TagIndex: 1, Time: 900e6, Phase: 0.2},
		{TagIndex: 1, Time: 950e6, Phase: 1.4},
		{TagIndex: 1, Time: 1000e6, Phase: 0.2},
	}
	spans := []Span{{Start: 0, End: 200e6}, {Start: 850e6, End: 1100e6}}
	img := p.CompositeImage(batchOf(readings), spans)
	if img[0] <= 0 || img[1] <= 0 {
		t.Errorf("composite missing span contributions: %v", img)
	}
	if img[2] != 0 || img[3] != 0 {
		t.Errorf("untouched tags should be zero: %v", img)
	}
}
