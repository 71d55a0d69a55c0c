package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/geo"
	"rfipad/internal/grammar"
	"rfipad/internal/hand"
	"rfipad/internal/metrics"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
)

func init() {
	register("fig22", "Fig. 22: stroke segmentation quality and letter deduction (L,T,Z,H,E)", func(cfg Config) Result {
		return RunFig22(cfg)
	})
	register("fig23", "Fig. 23: letter recognition accuracy by stroke-count group", func(cfg Config) Result {
		return RunFig23(cfg)
	})
	register("fig25", "Fig. 25: Kinect vs RFIPad trajectory for letter Z", func(cfg Config) Result {
		return RunFig25(cfg)
	})
}

// runLetterTrial writes the letter once and scores segmentation,
// stroke recognition, and letter deduction against the ground truth,
// producing the shared LetterTrial record.
func runLetterTrial(system *sim.System, pipeline *core.Pipeline, ch rune, user hand.User, seed int64) (LetterTrial, error) {
	var out LetterTrial
	specs, err := sim.LetterSpecs(ch)
	if err != nil {
		return out, err
	}
	synth := system.Synthesizer(user, rand.New(rand.NewSource(seed)))
	script := synth.Write(specs)
	readings := capture(system, script)
	results := pipeline.RecognizeStream(readings, nil, 0, script.Duration()+time.Second)

	out.StrokesTotal = len(script.Segments)
	out.Seg.Strokes = len(script.Segments)

	overlap := func(a, b core.Span) time.Duration {
		lo := a.Start
		if b.Start > lo {
			lo = b.Start
		}
		hi := a.End
		if b.End < hi {
			hi = b.End
		}
		if hi <= lo {
			return 0
		}
		return hi - lo
	}

	matched := make([]bool, len(script.Segments))
	for _, r := range results {
		// Find the ground-truth stroke this detection overlaps most.
		best, bestOv := -1, time.Duration(0)
		for i, truth := range script.Segments {
			ov := overlap(r.Span, core.Span{Start: truth.Start, End: truth.End})
			if ov > bestOv {
				best, bestOv = i, ov
			}
		}
		if best < 0 {
			// No overlap with any stroke: detected inside a
			// repositioning period (insertion).
			out.Seg.Insertions++
			continue
		}
		truth := script.Segments[best]
		if !matched[best] {
			matched[best] = true
			out.Seg.Detected++
			// Underfill: the detection covers too little of the stroke.
			if float64(bestOv) < 0.7*float64(truth.End-truth.Start) {
				out.Seg.Underfills++
			}
			if r.Result.Ok && r.Result.Motion == truth.Motion {
				out.StrokesRight++
			}
		} else {
			// A second detection on the same stroke is spurious.
			out.Seg.Insertions++
		}
	}

	var obs []core.StrokeObservation
	for _, r := range results {
		if r.Result.Ok {
			obs = append(obs, core.StrokeObservation{Motion: r.Result.Motion, Box: r.Result.Box, CenterX: r.Result.CenterX, CenterY: r.Result.CenterY})
		}
	}
	got, ok := core.ComposeLetter(obs)
	out.LetterOK = ok
	out.LetterCorrect = ok && got == ch
	return out, nil
}

// Fig22Result reproduces Fig. 22.
type Fig22Result struct {
	Letters        []rune
	InsertionRate  []float64
	UnderfillRate  []float64
	StrokeAccuracy []float64
	LetterAccuracy []float64
}

// Name implements Result.
func (Fig22Result) Name() string { return "fig22" }

// String renders the per-letter segmentation table.
func (r Fig22Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 22 — stroke segmentation and letter deduction\n")
	b.WriteString("letter  insertion  underfill  stroke-acc  letter-acc\n")
	for i, ch := range r.Letters {
		fmt.Fprintf(&b, "%-7q %9.3f %10.3f %11.3f %11.3f\n",
			ch, r.InsertionRate[i], r.UnderfillRate[i], r.StrokeAccuracy[i], r.LetterAccuracy[i])
	}
	return b.String()
}

// RunFig22 evaluates the five representative letters of §V-C (2, 3,
// and 4 strokes).
func RunFig22(cfg Config) Fig22Result {
	cfg.fill()
	res := Fig22Result{Letters: []rune{'L', 'T', 'Z', 'H', 'E'}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return res
	}
	pipeline := core.NewPipeline(system.Grid, cal)

	trials := cfg.Trials * cfg.Groups
	for _, ch := range res.Letters {
		var seg metrics.SegmentationTally
		var strokesRight, strokesTotal, lettersRight int
		users := hand.Volunteers()
		for k := 0; k < trials; k++ {
			out, err := runLetterTrial(system, pipeline, ch, users[k%len(users)], cfg.Seed+int64(ch)*131+int64(k)*17)
			if err != nil {
				continue
			}
			seg.Add(out.Seg)
			strokesRight += out.StrokesRight
			strokesTotal += out.StrokesTotal
			if out.LetterCorrect {
				lettersRight++
			}
		}
		res.InsertionRate = append(res.InsertionRate, seg.InsertionRate())
		res.UnderfillRate = append(res.UnderfillRate, seg.UnderfillRate())
		res.StrokeAccuracy = append(res.StrokeAccuracy, float64(strokesRight)/float64(strokesTotal))
		res.LetterAccuracy = append(res.LetterAccuracy, float64(lettersRight)/float64(trials))
	}
	return res
}

// Fig23Result reproduces Fig. 23.
type Fig23Result struct {
	// GroupAccuracy maps stroke-count group (1–4) to its mean letter
	// accuracy; Overall is across all 26 letters.
	GroupAccuracy map[int]float64
	Overall       float64
	// PerLetter records each letter's accuracy.
	PerLetter map[rune]float64
}

// Name implements Result.
func (Fig23Result) Name() string { return "fig23" }

// String renders the group table.
func (r Fig23Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 23 — letter recognition accuracy\n")
	for g := 1; g <= 4; g++ {
		fmt.Fprintf(&b, "group #%d (%d strokes): %.3f\n", g, g, r.GroupAccuracy[g])
	}
	fmt.Fprintf(&b, "overall: %.3f\n", r.Overall)
	for _, l := range grammar.Alphabet() {
		fmt.Fprintf(&b, "%c:%.2f ", l.Char, r.PerLetter[l.Char])
		if l.Char == 'I' || l.Char == 'R' {
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// RunFig23 writes all 26 letters repeatedly and reports accuracy by
// stroke-count group.
func RunFig23(cfg Config) Fig23Result {
	cfg.fill()
	res := Fig23Result{GroupAccuracy: map[int]float64{}, PerLetter: map[rune]float64{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return res
	}
	pipeline := core.NewPipeline(system.Grid, cal)

	trials := cfg.Trials * cfg.Groups
	groupRight := map[int]int{}
	groupTotal := map[int]int{}
	var allRight, allTotal int
	users := hand.Volunteers()
	for _, l := range grammar.Alphabet() {
		right := 0
		for k := 0; k < trials; k++ {
			out, err := runLetterTrial(system, pipeline, l.Char, users[k%len(users)], cfg.Seed+int64(l.Char)*977+int64(k)*29)
			if err != nil {
				continue
			}
			if out.LetterCorrect {
				right++
			}
		}
		res.PerLetter[l.Char] = float64(right) / float64(trials)
		groupRight[l.Group()] += right
		groupTotal[l.Group()] += trials
		allRight += right
		allTotal += trials
	}
	for g := 1; g <= 4; g++ {
		if groupTotal[g] > 0 {
			res.GroupAccuracy[g] = float64(groupRight[g]) / float64(groupTotal[g])
		}
	}
	if allTotal > 0 {
		res.Overall = float64(allRight) / float64(allTotal)
	}
	return res
}

// Fig25Result reproduces Fig. 25: the Kinect ground-truth trajectory
// versus the trajectory RFIPad recovers from RSS troughs while a user
// writes "Z".
type Fig25Result struct {
	// KinectSamples is the number of skeletal samples captured.
	KinectSamples int
	// TroughPoints is the number of (time, tag position) points
	// RFIPad recovered.
	TroughPoints int
	// MeanError is the mean 2-D distance between each recovered point
	// and the Kinect track at the same instant.
	MeanError float64
	// Deduced is the letter the pipeline composed.
	Deduced rune
	// Maps are the per-stroke gray maps (Fig. 25c).
	Maps []string
}

// Name implements Result.
func (Fig25Result) Name() string { return "fig25" }

// String renders the comparison summary.
func (r Fig25Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 25 — Kinect vs RFIPad while writing Z\n")
	fmt.Fprintf(&b, "kinect samples=%d trough points=%d mean 2-D error=%.3f m deduced=%q\n",
		r.KinectSamples, r.TroughPoints, r.MeanError, r.Deduced)
	for i, m := range r.Maps {
		fmt.Fprintf(&b, "stroke %d gray map:\n%s\n", i+1, m)
	}
	return b.String()
}

// RunFig25 writes a Z, tracks it with the simulated Kinect, and
// compares the trough-derived trajectory against the skeletal track.
func RunFig25(cfg Config) Fig25Result {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return Fig25Result{}
	}
	pipeline := core.NewPipeline(system.Grid, cal)

	specs, err := sim.LetterSpecs('Z')
	if err != nil {
		return Fig25Result{}
	}
	synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+25)))
	script := synth.Write(specs)
	readings := capture(system, script)

	kinect := hand.DefaultKinect()
	track := kinect.Track(script.Path, rand.New(rand.NewSource(cfg.Seed+26)))

	results := pipeline.RecognizeStream(readings, nil, 0, script.Duration()+time.Second)
	var errSum float64
	var res Fig25Result
	res.KinectSamples = track.Len()
	var obs []core.StrokeObservation
	for _, r := range results {
		if !r.Result.Ok {
			continue
		}
		obs = append(obs, core.StrokeObservation{Motion: r.Result.Motion, Box: r.Result.Box, CenterX: r.Result.CenterX, CenterY: r.Result.CenterY})
		res.Maps = append(res.Maps, r.Result.Image.String())
		for _, tr := range r.Result.Troughs {
			tag := system.Dep.Array.Tags[tr.TagIndex]
			kp, ok := track.At(tr.At)
			if !ok {
				continue
			}
			res.TroughPoints++
			errSum += geo.V2(kp.X-tag.Pos.X, kp.Y-tag.Pos.Y).Norm()
		}
	}
	if res.TroughPoints > 0 {
		res.MeanError = errSum / float64(res.TroughPoints)
	}
	if ch, ok := core.ComposeLetter(obs); ok {
		res.Deduced = ch
	}
	return res
}
