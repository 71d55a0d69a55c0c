package sim

import (
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/hand"
	"rfipad/internal/llrp"
	"rfipad/internal/scene"
	"rfipad/internal/stroke"
	"rfipad/internal/tagmodel"
)

func TestMultiPlateSharedReader(t *testing.T) {
	// The §I cost-efficiency story: one reader, two RFIPads, two
	// simultaneous writers — both strokes recognized.
	plateA := NewPlateSystem(scene.Config{}, 41)
	plateB := NewPlateSystem(scene.Config{}, 42)
	mp := NewMultiPlate([]*System{plateA, plateB}, 0)

	cals, err := mp.CalibrateAll(6 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	synthA := plateA.Synthesizer(hand.DefaultUser(), newSeededRand(1))
	synthB := plateB.Synthesizer(hand.DefaultUser(), newSeededRand(2))
	wantA := stroke.M(stroke.Vertical, stroke.Forward)
	wantB := stroke.M(stroke.Horizontal, stroke.Reverse)
	scriptA := synthA.DrawOne(wantA)
	scriptB := synthB.DrawOne(wantB)

	streams := mp.Run([]*hand.Script{scriptA, scriptB})
	if len(streams) != 2 {
		t.Fatalf("streams = %d", len(streams))
	}

	for i, tc := range []struct {
		plate  *System
		script *hand.Script
		want   stroke.Motion
	}{
		{plateA, scriptA, wantA},
		{plateB, scriptB, wantB},
	} {
		p := core.NewPipeline(tc.plate.Grid, cals[i])
		results := p.RecognizeStream(decode(streams[i]), nil, 0, tc.script.Duration()+time.Second)
		if len(results) != 1 || !results[0].Result.Ok {
			t.Errorf("plate %d: %d spans", i, len(results))
			continue
		}
		if got := results[0].Result.Motion; got != tc.want {
			t.Errorf("plate %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestMultiPlateSharesReadBudget(t *testing.T) {
	// Each plate's read rate is roughly half of a dedicated reader's.
	solo := NewPlateSystem(scene.Config{}, 43)
	soloReads := len(solo.CollectStatic(4 * time.Second))

	a := NewPlateSystem(scene.Config{}, 43)
	b := NewPlateSystem(scene.Config{}, 44)
	mp := NewMultiPlate([]*System{a, b}, 0)
	streams := mp.run(nil, 4*time.Second)

	shared := len(streams[0])
	ratio := float64(shared) / float64(soloReads)
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("shared-plate read fraction = %.2f, want ≈0.5", ratio)
	}
	// Both plates still see every tag.
	for pi, s := range streams {
		seen := map[int32]bool{}
		for _, tag := range decode(s).TagIndices {
			seen[tag] = true
		}
		if len(seen) != 25 {
			t.Errorf("plate %d saw %d tags", pi, len(seen))
		}
	}
}

func TestMultiPlateIdlePlate(t *testing.T) {
	a := NewPlateSystem(scene.Config{}, 45)
	b := NewPlateSystem(scene.Config{}, 46)
	mp := NewMultiPlate([]*System{a, b}, 300*time.Millisecond)
	synth := a.Synthesizer(hand.DefaultUser(), newSeededRand(5))
	script := synth.DrawOne(stroke.M(stroke.SlashDown, stroke.Forward))
	streams := mp.Run([]*hand.Script{script, nil})
	if len(streams[0]) == 0 || len(streams[1]) == 0 {
		t.Fatal("both plates should produce readings")
	}
	// The idle plate's stream is quiet: no spans detected.
	idle := decode(streams[1])
	cal, err := core.CalibrateBatch(idle, 25)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(core.Grid{Rows: 5, Cols: 5}, cal)
	if results := p.RecognizeStream(idle, nil, 0, script.Duration()+time.Second); len(results) != 0 {
		t.Errorf("idle plate produced %d spans", len(results))
	}
}

// TestPlateEPCsDecodeToArrayIndices pins the mapping the decode relies
// on: every tag's EPC serial is its array index plus one, so
// live.AppendReports resolves each report to the tag that sent it — on
// a plate with its own reader and on both plates of a shared reader,
// one of them a non-square array.
func TestPlateEPCsDecodeToArrayIndices(t *testing.T) {
	solo := NewPlateSystem(scene.Config{}, 47)
	wide := tagmodel.DefaultArrayConfig()
	wide.Rows, wide.Cols = 3, 7
	a := NewPlateSystem(scene.Config{}, 48)
	b := NewPlateSystem(scene.Config{Array: &wide}, 49)
	mp := NewMultiPlate([]*System{a, b}, 0)
	script := a.Synthesizer(hand.DefaultUser(), newSeededRand(6)).DrawOne(stroke.M(stroke.Vertical, stroke.Forward))
	shared := mp.Run([]*hand.Script{script})
	for i, c := range []struct {
		plate   *System
		capture []llrp.TagReport
	}{
		{solo, solo.RunScript(script)},
		{a, shared[0]},
		{b, shared[1]},
	} {
		for idx, tag := range c.plate.Dep.Array.Tags {
			if got := tagmodel.SerialOf(tag.EPC) - 1; got != idx {
				t.Errorf("plate %d: tag %d has EPC serial %d, want %d", i, idx, got+1, idx+1)
			}
		}
		n := c.plate.Grid.NumTags()
		tags := decode(c.capture).TagIndices
		if len(tags) == 0 {
			t.Fatalf("plate %d: empty capture", i)
		}
		for _, tag := range tags {
			if tag < 0 || int(tag) >= n {
				t.Fatalf("plate %d: decoded tag index %d outside [0, %d)", i, tag, n)
			}
		}
	}
}
