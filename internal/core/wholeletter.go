package core

import (
	"math"
	"sort"
	"time"

	"rfipad/internal/grammar"
	"rfipad/internal/stroke"
)

// Whole-letter recognition implements the alternative the paper
// proposes in §VI ("Compounding errors"): instead of deducing a letter
// from its stroke sequence — where segmentation, stroke, and deduction
// errors compound — treat the letter as a whole and identify it by
// image matching after the OTSU operation. The composite disturbance
// image of the entire writing session is correlated against templates
// rasterized from the grammar's canonical letter layouts.

// templateSigma is the splat radius (in cells) when rasterizing
// canonical strokes onto the tag grid — roughly the hand's sensing
// footprint.
const templateSigma = 0.6

// rasterizeLetter renders a letter's canonical strokes onto the grid.
func rasterizeLetter(grid Grid, l grammar.Letter) []float64 {
	img := make([]float64, grid.NumTags())
	for _, p := range l.Strokes {
		pts := stroke.Waypoints(p.Motion)
		// Sample densely along the polyline within the stroke's box.
		for seg := 0; seg+1 < len(pts) || len(pts) == 1; seg++ {
			a := pts[seg]
			bIdx := seg + 1
			if len(pts) == 1 {
				bIdx = seg
			}
			b := pts[bIdx]
			steps := 8
			for s := 0; s <= steps; s++ {
				u := float64(s) / float64(steps)
				x, y := p.Box.Map(a.X+(b.X-a.X)*u, a.Y+(b.Y-a.Y)*u)
				splat(grid, img, x, y)
			}
			if len(pts) == 1 {
				break
			}
		}
	}
	return img
}

// splat deposits a Gaussian bump at normalized position (x, y).
func splat(grid Grid, img []float64, x, y float64) {
	for i := range img {
		cx, cy := grid.Norm(i)
		dx := (x - cx) * float64(grid.Cols-1)
		dy := (y - cy) * float64(grid.Rows-1)
		d2 := dx*dx + dy*dy
		img[i] += math.Exp(-d2 / (2 * templateSigma * templateSigma))
	}
}

// normalizeImage zero-means and unit-norms an image for correlation.
func normalizeImage(img []float64) []float64 {
	var sum float64
	for _, v := range img {
		sum += v
	}
	mean := sum / float64(len(img))
	out := make([]float64, len(img))
	var ss float64
	for i, v := range img {
		out[i] = v - mean
		ss += out[i] * out[i]
	}
	n := math.Sqrt(ss)
	if n == 0 {
		return out
	}
	for i := range out {
		out[i] /= n
	}
	return out
}

// WholeLetterClassifier matches composite disturbance images against
// templates of the 26 letters.
type WholeLetterClassifier struct {
	grid      Grid
	letters   []rune
	templates [][]float64 // normalized
}

// NewWholeLetterClassifier rasterizes the grammar onto the given grid.
func NewWholeLetterClassifier(grid Grid) *WholeLetterClassifier {
	c := &WholeLetterClassifier{grid: grid}
	for _, l := range grammar.Alphabet() {
		c.letters = append(c.letters, l.Char)
		c.templates = append(c.templates, normalizeImage(rasterizeLetter(grid, l)))
	}
	return c
}

// Match scores a composite disturbance image against every template
// and returns the best letter with its normalized correlation in
// [-1, 1]. ok is false for a degenerate (constant) image.
func (c *WholeLetterClassifier) Match(img []float64) (ch rune, score float64, ok bool) {
	norm := normalizeImage(LogCompress(img))
	var energy float64
	for _, v := range norm {
		energy += v * v
	}
	if energy < 1e-12 {
		return 0, 0, false
	}
	best := -2.0
	for i, tpl := range c.templates {
		var corr float64
		for j := range tpl {
			corr += tpl[j] * norm[j]
		}
		if corr > best {
			best = corr
			ch = c.letters[i]
		}
	}
	return ch, best, true
}

// Ranking returns every letter ordered by descending correlation —
// useful for diagnostics and lexicon-constrained decoding.
func (c *WholeLetterClassifier) Ranking(img []float64) []rune {
	norm := normalizeImage(LogCompress(img))
	type scored struct {
		ch   rune
		corr float64
	}
	list := make([]scored, len(c.templates))
	for i, tpl := range c.templates {
		var corr float64
		for j := range tpl {
			corr += tpl[j] * norm[j]
		}
		list[i] = scored{c.letters[i], corr}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].corr > list[j].corr })
	out := make([]rune, len(list))
	for i, s := range list {
		out[i] = s.ch
	}
	return out
}

// CompositeImage sums the disturbance maps of the given spans of a
// capture — the whole-letter image §VI proposes to classify. Spans
// typically come from the segmenter; readings outside them (adjustment
// intervals) are excluded so the raised-hand transits do not smear the
// letter.
func (p *Pipeline) CompositeImage(capture *ReadingBatch, spans []Span) []float64 {
	img := make([]float64, p.Grid.NumTags())
	for _, sp := range spans {
		vals := DisturbanceMap(capture.Window(sp.Start, sp.End), p.Cal, p.Opts)
		for i, v := range vals {
			img[i] += v
		}
	}
	return img
}

// RecognizeWholeLetter runs the §VI alternative end to end: segment
// the capture, build the composite image, and template-match it.
func (p *Pipeline) RecognizeWholeLetter(c *WholeLetterClassifier, capture *ReadingBatch, seg *Segmenter, start, end time.Duration) (rune, bool) {
	if seg == nil {
		seg = NewSegmenter()
	}
	spans := seg.Segment(capture, p.Cal, start, end)
	if len(spans) == 0 {
		return 0, false
	}
	img := p.CompositeImage(capture, spans)
	ch, _, ok := c.Match(img)
	return ch, ok
}
