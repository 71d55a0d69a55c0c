package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/dsp"
	"rfipad/internal/hand"
	"rfipad/internal/llrp"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
	"rfipad/internal/stroke"
)

func init() {
	register("fig02", "Fig. 2: Doppler/phase/RSS over time, static vs hand movement", func(cfg Config) Result {
		return RunFig02(cfg)
	})
	register("fig04", "Fig. 4: average static phase per tag (tag diversity)", func(cfg Config) Result {
		return RunFig04(cfg)
	})
	register("fig05", "Fig. 5: static phase standard deviation per tag (deviation bias)", func(cfg Config) Result {
		return RunFig05(cfg)
	})
	register("fig06", "Fig. 6: phase de-periodicity (before/after unwrapping)", func(cfg Config) Result {
		return RunFig06(cfg)
	})
	register("fig07", "Fig. 7: disturbance gray maps ± suppression and after Otsu", func(cfg Config) Result {
		return RunFig07(cfg)
	})
	register("fig08", "Fig. 8: symmetry classes of per-tag phase trends", func(cfg Config) Result {
		return RunFig08(cfg)
	})
}

// standardSystem builds the default deployment + pipeline used by the
// channel-level figures.
func standardSystem(cfg Config) (*sim.System, *core.Calibration, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	return system, cal, err
}

// Fig02Result reproduces Fig. 2: the static traces are nearly
// constant; the hand-movement traces vary strongly in phase and RSS
// while Doppler stays noise-dominated in both.
type Fig02Result struct {
	StaticPhaseStd, MovingPhaseStd     float64
	StaticRSSStd, MovingRSSStd         float64
	StaticDopplerStd, MovingDopplerStd float64
	Samples                            int
}

// Name implements Result.
func (Fig02Result) Name() string { return "fig02" }

// String renders the comparison.
func (r Fig02Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — channel parameters, static vs hand movement (std over 20 s)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "parameter", "static", "moving")
	fmt.Fprintf(&b, "%-10s %10.4f %10.4f  (rad)\n", "phase", r.StaticPhaseStd, r.MovingPhaseStd)
	fmt.Fprintf(&b, "%-10s %10.4f %10.4f  (dB)\n", "RSS", r.StaticRSSStd, r.MovingRSSStd)
	fmt.Fprintf(&b, "%-10s %10.4f %10.4f  (Hz)\n", "Doppler", r.StaticDopplerStd, r.MovingDopplerStd)
	return b.String()
}

// RunFig02 collects 20 s static and 20 s of repeated hand passes over
// one tag and compares the channel-parameter variability.
func RunFig02(cfg Config) Fig02Result {
	cfg.fill()
	system, _, err := standardSystem(cfg)
	if err != nil {
		return Fig02Result{}
	}
	tagIdx := 12 // centre tag

	static := system.CollectStatic(20 * time.Second)

	// Repeated passes over the centre column for ~20 s.
	synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+5)))
	spec := hand.Spec{Motion: stroke.M(stroke.Vertical, stroke.Forward), Box: stroke.Unit}
	script := synth.Write([]hand.Spec{spec, spec, spec, spec})
	moving := system.RunScript(script)

	// The pipeline's columns drop Doppler, so this figure reads the
	// reports themselves.
	centre := system.Dep.Array.Tags[tagIdx].EPC
	collect := func(rs []llrp.TagReport) (phase, rss, dop []float64) {
		for _, r := range rs {
			if r.EPC != centre {
				continue
			}
			phase = append(phase, r.PhaseRad)
			rss = append(rss, r.RSSdBm)
			dop = append(dop, r.DopplerHz)
		}
		return
	}
	sp, sr, sd := collect(static)
	mp, mr, md := collect(moving)
	return Fig02Result{
		StaticPhaseStd:   dsp.CircularStd(sp),
		MovingPhaseStd:   dsp.CircularStd(mp),
		StaticRSSStd:     dsp.Std(sr),
		MovingRSSStd:     dsp.Std(mr),
		StaticDopplerStd: dsp.Std(sd),
		MovingDopplerStd: dsp.Std(md),
		Samples:          len(sp) + len(mp),
	}
}

// Fig04Result reproduces Fig. 4: per-tag mean static phase.
type Fig04Result struct {
	MeanPhase []float64
	// Span is the spread of the means over the circle.
	Span float64
}

// Name implements Result.
func (Fig04Result) Name() string { return "fig04" }

// String renders the per-tag means.
func (r Fig04Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 4 — average static phase per tag (rad)\n")
	for i, m := range r.MeanPhase {
		fmt.Fprintf(&b, "%6.3f", m)
		if (i+1)%5 == 0 {
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "spread over circle: %.3f rad\n", r.Span)
	return b.String()
}

// RunFig04 measures tag diversity: the static phase centre of each of
// the 25 tags, irregularly distributed over [0, 2π).
func RunFig04(cfg Config) Fig04Result {
	cfg.fill()
	system, cal, err := standardSystem(cfg)
	if err != nil {
		return Fig04Result{}
	}
	_ = system
	lo, hi := dsp.MinMax(cal.MeanPhase)
	return Fig04Result{MeanPhase: cal.MeanPhase, Span: hi - lo}
}

// Fig05Result reproduces Fig. 5: per-tag static phase standard
// deviation (the deviation bias).
type Fig05Result struct {
	Bias []float64
	// MaxOverMin quantifies how unevenly the bias is distributed.
	MaxOverMin float64
}

// Name implements Result.
func (Fig05Result) Name() string { return "fig05" }

// String renders the per-tag biases.
func (r Fig05Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 5 — static phase standard deviation per tag (rad)\n")
	for i, m := range r.Bias {
		fmt.Fprintf(&b, "%7.4f", m)
		if (i+1)%5 == 0 {
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "max/min ratio: %.2f\n", r.MaxOverMin)
	return b.String()
}

// RunFig05 measures the deviation bias at location #4, where the
// multipath unevenness is strongest.
func RunFig05(cfg Config) Fig05Result {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{Location: scene.Location4}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return Fig05Result{}
	}
	lo, hi := dsp.MinMax(cal.Bias)
	ratio := 0.0
	if lo > 0 {
		ratio = hi / lo
	}
	return Fig05Result{Bias: cal.Bias, MaxOverMin: ratio}
}

// Fig06Result reproduces Fig. 6: phase unwrapping.
type Fig06Result struct {
	// JumpsBefore counts >π discontinuities in the raw stream;
	// JumpsAfter counts them after unwrapping (should be 0).
	JumpsBefore, JumpsAfter int
	Samples                 int
}

// Name implements Result.
func (Fig06Result) Name() string { return "fig06" }

// String renders the before/after jump counts.
func (r Fig06Result) String() string {
	return fmt.Sprintf("Fig. 6 — phase de-periodicity\nsamples=%d jumps before unwrap=%d after=%d\n",
		r.Samples, r.JumpsBefore, r.JumpsAfter)
}

// RunFig06 captures a stroke whose phase wraps and counts the
// discontinuities before and after de-periodicity.
func RunFig06(cfg Config) Fig06Result {
	cfg.fill()
	system, _, err := standardSystem(cfg)
	if err != nil {
		return Fig06Result{}
	}
	synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+6)))
	script := synth.DrawOne(stroke.M(stroke.Vertical, stroke.Forward))
	readings := capture(system, script)

	var phases []float64
	for i, tag := range readings.TagIndices {
		if tag == 12 {
			phases = append(phases, readings.Phases[i])
		}
	}
	count := func(x []float64) int {
		jumps := 0
		for i := 1; i < len(x); i++ {
			d := x[i] - x[i-1]
			if d > 3.1416 || d < -3.1416 {
				jumps++
			}
		}
		return jumps
	}
	un := dsp.Unwrap(phases)
	return Fig06Result{
		JumpsBefore: count(phases),
		JumpsAfter:  count(un),
		Samples:     len(phases),
	}
}

// Fig07Result reproduces Fig. 7: the disturbance gray maps for a hand
// crossing the third column, without and with diversity suppression,
// and the Otsu binarization of the suppressed map.
type Fig07Result struct {
	Without, With, Binary string
	// ColumnIsolated reports whether the binarized foreground is
	// exactly the swept column.
	ColumnIsolated bool
}

// Name implements Result.
func (Fig07Result) Name() string { return "fig07" }

// String renders the three panels.
func (r Fig07Result) String() string {
	return fmt.Sprintf("Fig. 7 — motion identification gray maps (hand over column 3)\n"+
		"(a) without suppression:\n%s\n(b) with suppression:\n%s\n(c) after OTSU:\n%s\ncolumn isolated: %v\n",
		r.Without, r.With, r.Binary, r.ColumnIsolated)
}

// RunFig07 reproduces the paper's running example in a noisy
// environment (location #4, where suppression matters).
func RunFig07(cfg Config) Fig07Result {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{Location: scene.Location4}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return Fig07Result{}
	}
	// Hand down the third column (x = 0.5).
	synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+7)))
	script := synth.Write([]hand.Spec{{
		Motion: stroke.M(stroke.Vertical, stroke.Forward),
		Box:    stroke.R(0.4, 0, 0.6, 1),
	}})
	readings := capture(system, script)
	seg := script.Segments[0]
	windowReadings := readings.Window(seg.Start, seg.End)

	without := core.DisturbanceMap(windowReadings, cal, core.DisturbanceOptions{Suppression: core.SuppressMeanOnly})
	with := core.DisturbanceMap(windowReadings, cal, core.DisturbanceOptions{Suppression: core.SuppressFull})
	grid := system.Grid
	imgWith := core.NewGridImage(grid, with)
	// Panel (c) is the pipeline's actual foreground: Otsu on the
	// compressed map, reduced to the dominant component.
	mask := core.LargestComponent(grid, imgWith.Binarize(), with)

	isolated := true
	for i, m := range mask {
		if m != (i%grid.Cols == 2) {
			isolated = false
			break
		}
	}
	return Fig07Result{
		Without:        core.NewGridImage(grid, without).String(),
		With:           imgWith.String(),
		Binary:         core.MaskString(grid, mask),
		ColumnIsolated: isolated,
	}
}

// Fig08Result reproduces Fig. 8: the per-tag phase trends during one
// pass fall into monotone/axial/circular symmetric classes depending
// on the tag's position relative to the trajectory.
type Fig08Result struct {
	// NetOverTV per representative tag: a monotone trend has net
	// change ≈ total variation (ratio → 1); a symmetric trend returns
	// to its start (ratio → 0).
	Tags   []int
	Ratios []float64
}

// Name implements Result.
func (Fig08Result) Name() string { return "fig08" }

// String renders the symmetry ratios.
func (r Fig08Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — phase trend symmetry (|net change| / total variation)\n")
	for i, tag := range r.Tags {
		class := "symmetric"
		if r.Ratios[i] > 0.5 {
			class = "monotone-ish"
		}
		fmt.Fprintf(&b, "tag %2d: %.3f (%s)\n", tag, r.Ratios[i], class)
	}
	return b.String()
}

// RunFig08 sweeps the hand across the plate once and reports the
// net-change/total-variation ratio for tags at distinct positions
// relative to the trajectory.
func RunFig08(cfg Config) Fig08Result {
	cfg.fill()
	system, cal, err := standardSystem(cfg)
	if err != nil {
		return Fig08Result{}
	}
	synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+8)))
	script := synth.DrawOne(stroke.M(stroke.Horizontal, stroke.Forward)) // across row 2
	readings := capture(system, script)
	seg := script.Segments[0]
	win := readings.Window(seg.Start, seg.End)
	net := core.DisturbanceMap(win, cal, core.DisturbanceOptions{
		Suppression: core.SuppressMeanOnly, Accumulator: core.AccumNetChange})
	tv := core.DisturbanceMap(win, cal, core.DisturbanceOptions{
		Suppression: core.SuppressMeanOnly, Accumulator: core.AccumTotalVariation})

	// Representative tags: on the swept row (start, middle, end) and
	// off-row.
	tags := []int{10, 12, 14, 2, 22}
	res := Fig08Result{Tags: tags}
	for _, i := range tags {
		ratio := 0.0
		if tv[i] > 0 {
			ratio = net[i] / tv[i]
		}
		res.Ratios = append(res.Ratios, ratio)
	}
	return res
}
