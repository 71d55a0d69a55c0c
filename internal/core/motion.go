package core

import (
	"sync"

	"rfipad/internal/geo"
	"rfipad/internal/obs"
	"rfipad/internal/stroke"
)

// MotionResult is the full output of recognizing one stroke window.
type MotionResult struct {
	// Motion is the recognized motion (shape + direction).
	Motion stroke.Motion
	// Box is the stroke's bounding box in normalized canvas
	// coordinates.
	Box stroke.Rect
	// CenterX, CenterY is the intensity-weighted centroid — the
	// position information the letter composer uses for
	// disambiguation (§III-C2).
	CenterX, CenterY float64
	// Image is the grayscale disturbance image (Fig. 7b).
	Image *GridImage
	// Mask is the Otsu foreground (Fig. 7c).
	Mask []bool
	// Troughs are the per-tag RSS troughs, in time order.
	Troughs []TagTrough
	// TravelDir is the fitted hand travel direction (unit, normalized
	// canvas coordinates); zero when unavailable.
	TravelDir geo.Vec2
	// DirectionOK reports whether the direction came from RSS troughs
	// (false means the default Forward was assumed).
	DirectionOK bool
	// Ok is false when the window contained no recognizable motion.
	Ok bool
}

// Pipeline bundles the recognition configuration shared across
// windows: the grid, the calibration, and the suppression options.
type Pipeline struct {
	Grid Grid
	Cal  *Calibration
	Opts DisturbanceOptions
	// Obs selects the metrics registry stage latencies land in (nil =
	// obs.Default()). Set it before the first RecognizeWindow call.
	Obs *obs.Registry

	telOnce sync.Once
	tel     *pipelineTel
}

// scratchPool recycles DisturbanceScratch buffers. Pipelines are shared
// across goroutines by the experiment harness, so each window borrows a
// workspace instead of owning one; and every stream builds its own
// Pipeline, so a pool per pipeline would start each stream empty.
// Calibration borrows from it too.
var scratchPool = sync.Pool{New: func() any { return new(DisturbanceScratch) }}

// NewPipeline builds a recognition pipeline with full diversity
// suppression.
func NewPipeline(grid Grid, cal *Calibration) *Pipeline {
	return &Pipeline{Grid: grid, Cal: cal}
}

// telemetry resolves the stage instruments once (Pipelines are shared
// across goroutines by the experiment harness).
func (p *Pipeline) telemetry() *pipelineTel {
	p.telOnce.Do(func() { p.tel = newPipelineTel(p.Obs) })
	return p.tel
}

// RecognizeWindow runs the §III pipeline over one stroke window's
// readings: disturbance map → grayscale image → Otsu → shape
// classification → RSS direction estimation. The window is split by
// tag once, inside the disturbance stage, into a pooled scratch, and
// the direction stage reads its RSS runs from the same split. The
// window is only read; the recognizer hands it a range of its history.
func (p *Pipeline) RecognizeWindow(w ReadingBatch) MotionResult {
	sc := scratchPool.Get().(*DisturbanceScratch)
	defer scratchPool.Put(sc)
	tel := p.telemetry()
	tel.windows.Inc()

	t := obs.Mono()
	vals := sc.Map(w, p.Cal, p.Opts)
	// Fill cells of dead (uncalibrated) tags from live neighbors so a
	// stroke crossing a hole in the array stays one bright region.
	vals = InterpolateDead(p.Grid, vals, p.Cal.Dead)
	img := NewGridImage(p.Grid, vals)
	if n := p.Cal.DeadCount(); n > 0 {
		tel.interpolated.Add(uint64(n))
	}
	t = tel.disturbance.ObserveFrom(t)

	// Otsu runs on the range-compressed image so a stroke's intensity
	// gradient stays in one foreground cluster; the geometric
	// classifier weights cells by the raw scores so residual noise
	// cells in the mask barely deflect the fit.
	mask := LargestComponent(p.Grid, img.Binarize(), vals)
	shape := ClassifyShapeDegraded(p.Grid, vals, mask, p.Cal.Dead)
	t = tel.classify.ObserveFrom(t)
	if !shape.Ok {
		return MotionResult{Image: img, Mask: mask}
	}

	res := MotionResult{
		Box:     shape.Box,
		CenterX: shape.CenterX,
		CenterY: shape.CenterY,
		Image:   img,
		Mask:    mask,
		Ok:      true,
	}

	if shape.Shape == stroke.Click {
		res.Motion = stroke.M(stroke.Click, 0)
		res.Troughs = sc.tagTroughs(shape.Cells)
		tel.direction.ObserveFrom(t)
		return res
	}

	troughs := sc.tagTroughs(shape.Cells)
	dir, dirOK := fitDirection(p.Grid, troughs)
	if shape.Shape == stroke.ArcLeft || shape.Shape == stroke.ArcRight {
		// Arcs reverse course in x; endpoint displacement is the
		// robust direction cue.
		if d, ok := arcEndpointsDirection(p.Grid, troughs); ok {
			dir, dirOK = d, true
		}
	}
	tel.direction.ObserveFrom(t)
	res.Troughs = troughs
	res.TravelDir = dir

	// Position refinement (§III-C2: stroke positions come from tag
	// IDs): the RSS troughs mark the tags the hand actually passed —
	// a much tighter footprint than the phase disturbance, which
	// bleeds a cell past the trail. With enough troughs, they define
	// the stroke's box and centroid.
	if len(troughs) >= 3 {
		minX, minY := 2.0, 2.0
		maxX, maxY := -1.0, -1.0
		var wSum, cx, cy float64
		for _, tr := range troughs {
			x, y := p.Grid.Norm(tr.TagIndex)
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			wSum += tr.DepthDB
			cx += tr.DepthDB * x
			cy += tr.DepthDB * y
		}
		padX, padY := 0.0, 0.0
		if p.Grid.Cols > 1 {
			padX = 0.5 / float64(p.Grid.Cols-1)
		}
		if p.Grid.Rows > 1 {
			padY = 0.5 / float64(p.Grid.Rows-1)
		}
		res.Box = stroke.R(
			max(0, minX-padX), max(0, minY-padY),
			min(1, maxX+padX), min(1, maxY+padY),
		)
		res.CenterX = cx / wSum
		res.CenterY = cy / wSum
	}

	d := stroke.Forward
	if dirOK {
		if sd, ok := DirectionFor(shape.Shape, dir); ok {
			d = sd
			res.DirectionOK = true
		}
	}
	res.Motion = stroke.M(shape.Shape, d)
	return res
}
