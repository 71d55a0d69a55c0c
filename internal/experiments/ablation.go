package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/epc"
	"rfipad/internal/grammar"
	"rfipad/internal/hand"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
)

func init() {
	register("ablation-accumulator", "Ablation: total-variation vs telescoped reading of Eq. 10", func(cfg Config) Result {
		return RunAblationAccumulator(cfg)
	})
	register("ablation-suppression", "Ablation: diversity-suppression variants at location #4", func(cfg Config) Result {
		return RunAblationSuppression(cfg)
	})
	register("ablation-segmentation", "Ablation: segmentation frame/window sizing", func(cfg Config) Result {
		return RunAblationSegmentation(cfg)
	})
	register("ablation-wholeletter", "Ablation: stroke-grammar vs whole-letter image matching (§VI)", func(cfg Config) Result {
		return RunAblationWholeLetter(cfg)
	})
	register("ablation-fastmac", "Ablation: short-packet MAC for fast writers (§VI)", func(cfg Config) Result {
		return RunAblationFastMAC(cfg)
	})
	register("ablation-hopping", "Ablation: fixed carrier vs FCC frequency hopping (§IV-A)", func(cfg Config) Result {
		return RunAblationHopping(cfg)
	})
}

// AblationResult is a generic labelled-accuracy table.
type AblationResult struct {
	Title      string
	ID         string
	Labels     []string
	Accuracies []float64
}

// Name implements Result.
func (r AblationResult) Name() string { return r.ID }

// String renders the ablation table.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	for i, l := range r.Labels {
		fmt.Fprintf(&b, "%-28s %6.3f\n", l, r.Accuracies[i])
	}
	return b.String()
}

// RunAblationAccumulator compares the two readings of Eq. 10's sum
// (DESIGN.md §5): the literal telescoped sum collapses oscillating
// disturbances and should lose badly.
func RunAblationAccumulator(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-accumulator",
		Title: "Ablation — Eq. 10 accumulator reading (13 motions, default scene)",
	}
	for _, v := range []struct {
		label string
		acc   core.Accumulator
	}{
		{"total variation (ours)", core.AccumTotalVariation},
		{"telescoped net change", core.AccumNetChange},
	} {
		tally, _ := runCondition(cfg, condition{accumulator: v.acc})
		res.Labels = append(res.Labels, v.label)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// RunAblationSuppression compares the suppression variants at the
// noisiest location: none, mean-only, the literal Eq. 10 inverse
// weighting, and the subtractive noise-rate form we ship.
func RunAblationSuppression(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-suppression",
		Title: "Ablation — diversity suppression variants (location #4)",
	}
	for _, v := range []struct {
		label string
		mode  core.Suppression
	}{
		{"none", core.SuppressNone},
		{"mean subtraction only", core.SuppressMeanOnly},
		{"inverse weighting (Eq.10)", core.SuppressInverseWeight},
		{"noise-rate subtraction", core.SuppressFull},
	} {
		tally, _ := runCondition(cfg, condition{
			scene:       scene.Config{Location: scene.Location4},
			suppression: v.mode,
		})
		res.Labels = append(res.Labels, v.label)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// RunAblationSegmentation sweeps the segmenter's window size around
// the paper's 100 ms × 5 frames.
func RunAblationSegmentation(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-segmentation",
		Title: "Ablation — segmentation frame/window sizing (default scene)",
	}
	for _, v := range []struct {
		label  string
		frame  time.Duration
		frames int
	}{
		{"50ms × 5 frames", 50 * time.Millisecond, 5},
		{"100ms × 3 frames", 100 * time.Millisecond, 3},
		{"100ms × 5 frames (paper)", 100 * time.Millisecond, 5},
		{"100ms × 8 frames", 100 * time.Millisecond, 8},
		{"200ms × 5 frames", 200 * time.Millisecond, 5},
	} {
		seg := core.NewSegmenter()
		seg.FrameLen = v.frame
		seg.WindowFrames = v.frames
		tally, _ := runCondition(cfg, condition{segmenter: seg})
		res.Labels = append(res.Labels, v.label)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// RunAblationWholeLetter compares the shipped stroke-grammar letter
// recognition against the §VI whole-letter image matching alternative
// over the full alphabet.
func RunAblationWholeLetter(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-wholeletter",
		Title: "Ablation — stroke-grammar vs whole-letter image matching (§VI)",
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return res
	}
	pipeline := core.NewPipeline(system.Grid, cal)
	whole := core.NewWholeLetterClassifier(system.Grid)

	trials := cfg.Trials * cfg.Groups
	var grammarRight, wholeRight, total int
	users := hand.Volunteers()
	for _, l := range grammar.Alphabet() {
		for k := 0; k < trials; k++ {
			specs, err := sim.LetterSpecs(l.Char)
			if err != nil {
				continue
			}
			synth := system.Synthesizer(users[k%len(users)], rand.New(rand.NewSource(cfg.Seed+int64(l.Char)*577+int64(k)*41)))
			script := synth.Write(specs)
			readings := capture(system, script)
			end := script.Duration() + time.Second
			total++

			results := pipeline.RecognizeStream(readings, nil, 0, end)
			var obs []core.StrokeObservation
			for _, r := range results {
				if r.Result.Ok {
					obs = append(obs, core.StrokeObservation{
						Motion: r.Result.Motion, Box: r.Result.Box,
						CenterX: r.Result.CenterX, CenterY: r.Result.CenterY,
					})
				}
			}
			if ch, ok := core.ComposeLetter(obs); ok && ch == l.Char {
				grammarRight++
			}
			if ch, ok := pipeline.RecognizeWholeLetter(whole, readings, nil, 0, end); ok && ch == l.Char {
				wholeRight++
			}
		}
	}
	res.Labels = []string{"stroke grammar (ours)", "whole-letter matching (§VI)"}
	res.Accuracies = []float64{
		float64(grammarRight) / float64(total),
		float64(wholeRight) / float64(total),
	}
	return res
}

// RunAblationFastMAC measures the §VI low-throughput mitigation: a
// fast writer's accuracy with the default MAC versus the short-packet
// profile.
func RunAblationFastMAC(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-fastmac",
		Title: "Ablation — fast writer vs MAC profile (§VI undersampling)",
	}
	fast := hand.Volunteers()[5] // user #6, the fast writer
	fast.Speed *= 1.5            // push into the undersampling regime
	for _, v := range []struct {
		label string
		mac   epc.Config
	}{
		{"default MAC, fast writer", epc.DefaultConfig()},
		{"short-packet MAC, fast writer", epc.FastConfig()},
	} {
		tally, _ := runCondition(cfg, condition{
			users: []hand.User{fast},
			mac:   &v.mac,
		})
		res.Labels = append(res.Labels, v.label)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// FCCCarriers is a representative FCC-band hop set.
var FCCCarriers = []float64{902.75e6, 909.25e6, 915.25e6, 921.25e6, 927.25e6}

// RunAblationHopping quantifies why the paper operates on a fixed
// carrier (§IV-A): under FCC-style frequency hopping each tag's phase
// centre jumps with the wavelength, so a pipeline calibrated at one
// carrier loses its diversity suppression and much of its phase
// signal-to-noise.
func RunAblationHopping(cfg Config) AblationResult {
	cfg.fill()
	res := AblationResult{
		ID:    "ablation-hopping",
		Title: "Ablation — fixed 922.38 MHz carrier vs FCC frequency hopping (§IV-A)",
	}
	for _, v := range []struct {
		label string
		sc    scene.Config
	}{
		{"fixed carrier (paper)", scene.Config{}},
		{"FCC hopping, 200ms dwell", scene.Config{HopCarriersHz: FCCCarriers}},
	} {
		tally, _ := runCondition(cfg, condition{scene: v.sc})
		res.Labels = append(res.Labels, v.label)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}
