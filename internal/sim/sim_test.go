package sim

import (
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/dsp"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/scene"
	"rfipad/internal/stroke"
)

func newSystem(t *testing.T, seed int64, cfg scene.Config) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dep := scene.New(cfg, rng)
	return New(dep, rng)
}

// decode turns a capture into the columns rfipad-live decodes from the
// wire.
func decode(reports []llrp.TagReport) *core.ReadingBatch {
	b := new(core.ReadingBatch)
	live.AppendReports(b, reports)
	return b
}

// ingestEach feeds a capture to rec one reading at a time, as
// one-element batches, and returns the events.
func ingestEach(rec *core.Recognizer, capture *core.ReadingBatch) []core.Event {
	var events []core.Event
	for k := 0; k < capture.Len(); k++ {
		one := capture.Slice(k, k+1)
		events = append(events, rec.IngestBatch(&one)...)
	}
	return events
}

func TestStaticCaptureStatistics(t *testing.T) {
	s := newSystem(t, 1, scene.Config{})
	readings := decode(s.CollectStatic(3 * time.Second))
	if readings.Len() < 500 {
		t.Fatalf("static capture = %d readings", readings.Len())
	}
	// Every tag represented; phases near-constant per tag but centres
	// scattered over [0,2π) (Fig. 4/5).
	perTag := map[int32][]float64{}
	for i, tag := range readings.TagIndices {
		perTag[tag] = append(perTag[tag], readings.Phases[i])
		if rss := readings.RSS[i]; rss > -5 || rss < -75 {
			t.Fatalf("RSS out of range: %v", rss)
		}
	}
	if len(perTag) != 25 {
		t.Fatalf("tags seen = %d", len(perTag))
	}
	var centres []float64
	for i, phases := range perTag {
		sd := dsp.CircularStd(phases)
		if sd > 0.3 {
			t.Errorf("tag %d static phase std = %v, want small", i, sd)
		}
		centres = append(centres, dsp.CircularMean(phases))
	}
	lo, hi := dsp.MinMax(centres)
	if hi-lo < 3 {
		t.Errorf("centres span only %v rad; want tag diversity over the circle", hi-lo)
	}
}

func TestCalibrateFromSystem(t *testing.T) {
	s := newSystem(t, 2, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cal.NumTags() != 25 {
		t.Fatalf("NumTags = %d", cal.NumTags())
	}
}

func TestEndToEndSingleStrokes(t *testing.T) {
	// The headline pipeline: synthesize a motion over the plate, run
	// the MAC + channel, calibrate, segment, recognize — the shape
	// must come back right for the basic motions.
	s := newSystem(t, 3, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(s.Grid, cal)
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(4)))

	tests := []stroke.Motion{
		stroke.M(stroke.Vertical, stroke.Forward),
		stroke.M(stroke.Horizontal, stroke.Forward),
		stroke.M(stroke.SlashDown, stroke.Forward),
	}
	for _, want := range tests {
		t.Run(want.String(), func(t *testing.T) {
			script := synth.DrawOne(want)
			readings := decode(s.RunScript(script))
			results := p.RecognizeStream(readings, nil, 0, script.Duration()+time.Second)
			if len(results) != 1 {
				t.Fatalf("spans = %d, want 1", len(results))
			}
			got := results[0].Result
			if !got.Ok {
				t.Fatalf("recognition failed\n%s", got.Image)
			}
			if got.Motion.Shape != want.Shape {
				t.Errorf("shape = %v, want %v\nimage:\n%s\nmask:\n%s",
					got.Motion.Shape, want.Shape, got.Image, core.MaskString(s.Grid, got.Mask))
			}
			if got.Motion.Dir != want.Dir {
				t.Errorf("direction = %v, want %v (dirOK=%v, travel %v)",
					got.Motion.Dir, want.Dir, got.DirectionOK, got.TravelDir)
			}
		})
	}
}

func TestEndToEndClick(t *testing.T) {
	s := newSystem(t, 5, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(s.Grid, cal)
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(6)))
	// Click over the centre tag.
	script := synth.Write([]hand.Spec{{
		Motion: stroke.M(stroke.Click, 0),
		Box:    stroke.R(0.4, 0.4, 0.6, 0.6),
	}})
	readings := decode(s.RunScript(script))
	results := p.RecognizeStream(readings, nil, 0, script.Duration()+time.Second)
	if len(results) != 1 {
		t.Fatalf("spans = %d, want 1", len(results))
	}
	got := results[0].Result
	if !got.Ok || got.Motion.Shape != stroke.Click {
		t.Errorf("got %v ok=%v\n%s", got.Motion, got.Ok, got.Image)
	}
	// The click lands near the plate centre.
	if got.Box.CenterX() < 0.25 || got.Box.CenterX() > 0.75 {
		t.Errorf("click box off-centre: %+v", got.Box)
	}
}

func TestRunScriptDeterministicBySeed(t *testing.T) {
	run := func() []llrp.TagReport {
		s := newSystem(t, 7, scene.Config{})
		synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(8)))
		return s.RunScript(synth.DrawOne(stroke.M(stroke.Vertical, stroke.Forward)))
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seeds produced different streams")
		}
	}
}

func TestClickSuppressesPressedTagReads(t *testing.T) {
	// At reduced TX power the pressed tag's harvesting margin is gone:
	// the resonance detuning stops the IC powering up, so its read
	// rate collapses while distant tags keep reporting (the §VI
	// working-range and Fig. 17 low-power behaviour).
	s := newSystem(t, 9, scene.Config{TxPowerDBm: 13})
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(10)))
	spec := hand.Spec{
		Motion: stroke.M(stroke.Click, 0),
		Box:    stroke.R(0.4, 0.4, 0.6, 0.6), // over tag (2,2)=12
	}
	script := synth.Write([]hand.Spec{spec, spec, spec})
	readings := decode(s.RunScript(script))

	// Count reads while the hand is within 3 cm of the pressed tag —
	// there the detuning removes its power margin entirely.
	pressedPos := s.Dep.Array.TagAt(2, 2).Pos
	deep := func(tm time.Duration) bool {
		pos, ok := script.Path.At(tm)
		return ok && pos.Dist(pressedPos) < 0.03
	}
	var pressed, corner int
	for i, at := range readings.Times {
		if !deep(at) {
			continue
		}
		switch readings.TagIndices[i] {
		case 12:
			pressed++
		case 0:
			corner++
		}
	}
	if corner == 0 {
		t.Fatal("corner tag unread during deep pushes")
	}
	if float64(pressed) > 0.34*float64(corner) {
		t.Errorf("pressed tag reads %d vs corner %d during deep pushes; want a collapse", pressed, corner)
	}
}
