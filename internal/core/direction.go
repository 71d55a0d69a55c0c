package core

import (
	"time"

	"rfipad/internal/dsp"
	"rfipad/internal/geo"
	"rfipad/internal/stroke"
)

// Direction-estimation tuning (§III-B's two-staged RSS trough
// estimation).
const (
	// troughSmoothWidth is the moving-average width for the coarse
	// stage.
	troughSmoothWidth = 5
	// troughMinDepthDB is the minimum excursion below the series
	// median to count as a trough.
	troughMinDepthDB = 2.5
)

// TagTrough records the trough found on one foreground tag.
type TagTrough struct {
	TagIndex int
	At       time.Duration
	DepthDB  float64
}

// tagTroughs runs the two-stage trough estimator over the RSS series
// of the given tags in the window the scratch last split, and returns
// the troughs found, ordered by time — the sequence of tags the hand
// passed (§III-B). Each tag's time and RSS runs go to the trough finder
// as they sit in the split; out-of-range tags are skipped.
func (sc *DisturbanceScratch) tagTroughs(tags []int) []TagTrough {
	var out []TagTrough
	for _, i := range tags {
		if i < 0 || i >= len(sc.split.lo) {
			continue
		}
		r := sc.split.run(i)
		tr, ok := dsp.FindTrough(&sc.trough, r.times, r.rss, troughSmoothWidth, troughMinDepthDB)
		if !ok {
			continue
		}
		out = append(out, TagTrough{TagIndex: i, At: tr.T, DepthDB: tr.Depth})
	}
	// Order by trough time.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fitDirection fits the hand's travel direction across the foreground
// tags from their RSS troughs, ordered by time: a depth-weighted least
// squares of position against trough time. It returns a unit direction
// in normalized canvas coordinates; ok is false with fewer than two
// usable troughs or an indeterminate fit.
func fitDirection(grid Grid, troughs []TagTrough) (geo.Vec2, bool) {
	if len(troughs) < 2 {
		return geo.Vec2{}, false
	}
	var wSum, tMean float64
	for _, tr := range troughs {
		wSum += tr.DepthDB
		tMean += tr.DepthDB * tr.At.Seconds()
	}
	tMean /= wSum
	var xMean, yMean float64
	for _, tr := range troughs {
		x, y := grid.Norm(tr.TagIndex)
		xMean += tr.DepthDB * x
		yMean += tr.DepthDB * y
	}
	xMean /= wSum
	yMean /= wSum
	var num geo.Vec2
	var den float64
	for _, tr := range troughs {
		x, y := grid.Norm(tr.TagIndex)
		dt := tr.At.Seconds() - tMean
		num.X += tr.DepthDB * dt * (x - xMean)
		num.Y += tr.DepthDB * dt * (y - yMean)
		den += tr.DepthDB * dt * dt
	}
	if den <= 1e-12 {
		return geo.Vec2{}, false
	}
	v := geo.V2(num.X/den, num.Y/den)
	if v.Norm() < 1e-9 {
		return geo.Vec2{}, false
	}
	return v.Unit(), true
}

// arcEndpointsDirection estimates the travel direction for arcs, where
// x reverses mid-stroke: the displacement from the first to the last
// trough position.
func arcEndpointsDirection(grid Grid, troughs []TagTrough) (geo.Vec2, bool) {
	if len(troughs) < 2 {
		return geo.Vec2{}, false
	}
	x0, y0 := grid.Norm(troughs[0].TagIndex)
	x1, y1 := grid.Norm(troughs[len(troughs)-1].TagIndex)
	d := geo.V2(x1-x0, y1-y0)
	if d.Norm() < 1e-9 {
		return geo.Vec2{}, false
	}
	return d.Unit(), true
}

// DirectionFor maps an estimated travel direction onto the stroke
// vocabulary's Forward/Reverse for the given shape (the open/close
// semantics of §III-B). ok is false for shapes without direction
// (click) or an indeterminate fit.
func DirectionFor(shape stroke.Shape, dir geo.Vec2) (stroke.Direction, bool) {
	if dir.Norm() == 0 {
		return 0, false
	}
	switch shape {
	case stroke.Horizontal:
		if dir.X >= 0 {
			return stroke.Forward, true // →
		}
		return stroke.Reverse, true
	case stroke.Vertical:
		if dir.Y <= 0 {
			return stroke.Forward, true // ↓
		}
		return stroke.Reverse, true
	case stroke.SlashUp:
		// "/" forward runs from the top-right end downward.
		if dir.X+dir.Y <= 0 {
			return stroke.Forward, true
		}
		return stroke.Reverse, true
	case stroke.SlashDown:
		// "\" forward runs from the top-left end downward.
		if dir.X-dir.Y >= 0 {
			return stroke.Forward, true
		}
		return stroke.Reverse, true
	case stroke.ArcLeft, stroke.ArcRight:
		// Arcs are drawn top-to-bottom when forward.
		if dir.Y <= 0 {
			return stroke.Forward, true
		}
		return stroke.Reverse, true
	default:
		return 0, false
	}
}
