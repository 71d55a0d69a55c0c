package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"rfipad/internal/obs"
)

// staticCalibration measures a real calibration from a synthetic static
// capture so snapshot tests exercise the same state production uses.
func staticCalibration(t *testing.T, numTags int) *Calibration {
	t.Helper()
	var static []Reading
	for i := 0; i < numTags; i++ {
		for j := 0; j < 40; j++ {
			static = append(static, Reading{
				TagIndex: i,
				Time:     time.Duration(j) * 25 * time.Millisecond,
				Phase:    float64(i)*0.3 + 0.02*math.Sin(float64(j)),
				RSS:      -55,
			})
		}
	}
	cal, err := Calibrate(static, numTags)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestCalibrationSnapshotRoundTrip(t *testing.T) {
	cal := staticCalibration(t, 25)
	snap := cal.Snapshot()

	restored, err := RestoreCalibration(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumTags() != cal.NumTags() {
		t.Fatalf("restored %d tags, want %d", restored.NumTags(), cal.NumTags())
	}
	for i := 0; i < cal.NumTags(); i++ {
		if restored.MeanPhase[i] != cal.MeanPhase[i] || restored.Bias[i] != cal.Bias[i] ||
			restored.TVRate[i] != cal.TVRate[i] || restored.Dead[i] != cal.Dead[i] {
			t.Fatalf("tag %d statistics diverged after restore", i)
		}
		// Weights are derived, not persisted: the restore must recompute
		// the identical Eq. 9 weighting.
		if got, want := restored.Weight(i), cal.Weight(i); math.Abs(got-want) > 1e-15 {
			t.Fatalf("tag %d weight %v, want %v", i, got, want)
		}
	}

	// The snapshot is a deep copy: mutating it must not reach back into
	// the live calibration.
	snap.MeanPhase[0] = 99
	snap.Dead[1] = true
	if cal.MeanPhase[0] == 99 || cal.Dead[1] {
		t.Fatal("snapshot aliases the calibration's slices")
	}
}

func TestRestoreCalibrationRejectsGarbage(t *testing.T) {
	good := staticCalibration(t, 8).Snapshot()

	cases := map[string]func(s *CalibrationSnapshot){
		"empty":            func(s *CalibrationSnapshot) { *s = CalibrationSnapshot{} },
		"length mismatch":  func(s *CalibrationSnapshot) { s.Bias = s.Bias[:3] },
		"nan mean phase":   func(s *CalibrationSnapshot) { s.MeanPhase[2] = math.NaN() },
		"inf tv rate":      func(s *CalibrationSnapshot) { s.TVRate[0] = math.Inf(1) },
		"zero bias":        func(s *CalibrationSnapshot) { s.Bias[1] = 0 },
		"negative bias":    func(s *CalibrationSnapshot) { s.Bias[1] = -0.5 },
		"mostly dead grid": func(s *CalibrationSnapshot) { s.Dead[0], s.Dead[1], s.Dead[2] = true, true, true },
	}
	for name, mutate := range cases {
		s := CalibrationSnapshot{
			MeanPhase: append([]float64(nil), good.MeanPhase...),
			Bias:      append([]float64(nil), good.Bias...),
			TVRate:    append([]float64(nil), good.TVRate...),
			Dead:      append([]bool(nil), good.Dead...),
		}
		mutate(&s)
		if _, err := RestoreCalibration(s); err == nil {
			t.Errorf("%s: restore accepted a garbage snapshot", name)
		}
	}

	// Non-finite statistics on a dead tag are fine: the tag carries no
	// weight, so its numbers are never consulted.
	s := good
	s.Dead[4] = true
	s.MeanPhase[4] = math.NaN()
	if _, err := RestoreCalibration(s); err != nil {
		t.Errorf("dead tag's NaN rejected: %v", err)
	}
}

func TestSanitizerAdmit(t *testing.T) {
	reg := obs.NewRegistry()
	san := NewSanitizer(reg)
	rejected := func(reason string) float64 {
		return reg.Snapshot().Value("readings_rejected_total", obs.L("reason", reason))
	}
	// admit runs one reading through AdmitColumns as a one-element batch.
	admit := func(rd Reading, newest time.Duration) bool {
		var b ReadingBatch
		b.AppendReading(rd)
		san.AdmitColumns(&b, newest)
		return b.Len() == 1
	}
	good := Reading{TagIndex: 0, Time: 5 * time.Second, Phase: 1.2, RSS: -60}

	if !admit(good, 5*time.Second) {
		t.Fatal("clean reading rejected")
	}

	cases := []struct {
		name   string
		rd     Reading
		newest time.Duration
		reason string
	}{
		{"nan phase", Reading{Time: 5 * time.Second, Phase: math.NaN(), RSS: -60}, 5 * time.Second, "phase"},
		{"+inf phase", Reading{Time: 5 * time.Second, Phase: math.Inf(1), RSS: -60}, 5 * time.Second, "phase"},
		{"rss too low", Reading{Time: 5 * time.Second, Phase: 1, RSS: -150}, 5 * time.Second, "rss"},
		{"rss positive", Reading{Time: 5 * time.Second, Phase: 1, RSS: 3}, 5 * time.Second, "rss"},
	}
	for _, tc := range cases {
		before := rejected(tc.reason)
		if admit(tc.rd, tc.newest) {
			t.Errorf("%s: admitted", tc.name)
			continue
		}
		if after := rejected(tc.reason); after != before+1 {
			t.Errorf("%s: readings_rejected_total{reason=%q} = %v, want %v", tc.name, tc.reason, after, before+1)
		}
	}

	// A mixed batch: the NaN phase is rejected, and every reading with
	// usable values stays, in order, however it is stamped (the stream's
	// Clock judges the stamps).
	var b ReadingBatch
	for _, rd := range []Reading{
		{TagIndex: 0, Time: 5 * time.Second, Phase: 1.0, RSS: -60},
		{TagIndex: 1, Time: 3 * time.Second, Phase: 1.1, RSS: -61}, // 2 s behind 5 s
		{TagIndex: 2, Time: 4500 * time.Millisecond, Phase: math.NaN(), RSS: -62},
		{TagIndex: 3, Time: 4500 * time.Millisecond, Phase: 1.3, RSS: -63}, // reordering
		{TagIndex: 4, Time: 6 * time.Second, Phase: 1.4, RSS: -64},
		{TagIndex: 5, Time: 4800 * time.Millisecond, Phase: 1.5, RSS: -65}, // 1.2 s behind 6 s
	} {
		b.AppendReading(rd)
	}
	phaseBefore := rejected("phase")
	san.AdmitColumns(&b, 0)
	want := ReadingBatch{
		Times:      []time.Duration{5 * time.Second, 3 * time.Second, 4500 * time.Millisecond, 6 * time.Second, 4800 * time.Millisecond},
		Phases:     []float64{1.0, 1.1, 1.3, 1.4, 1.5},
		RSS:        []float64{-60, -61, -63, -64, -65},
		TagIndices: []int32{0, 1, 3, 4, 5},
	}
	if !slices.Equal(b.Times, want.Times) || !slices.Equal(b.Phases, want.Phases) ||
		!slices.Equal(b.RSS, want.RSS) || !slices.Equal(b.TagIndices, want.TagIndices) {
		t.Errorf("mixed batch kept %+v, want %+v", b, want)
	}
	if got := rejected("phase") - phaseBefore; got != 1 {
		t.Errorf("mixed batch: %v phase rejections, want 1", got)
	}
}

func TestRecognizerSkipTo(t *testing.T) {
	cal := UniformCalibration(25)
	grid := Grid{Rows: 5, Cols: 5}

	rec := NewRecognizer(NewPipeline(grid, cal), nil)
	frame := NewSegmenter().FrameLen

	// SkipTo aligns down to a frame boundary and moves the cursor.
	target := 7*time.Second + frame/3
	rec.SkipTo(target)
	want := target - target%frame
	if got := rec.FrameCursor(); got != want {
		t.Fatalf("FrameCursor after SkipTo = %v, want %v", got, want)
	}

	// Ingesting a reading older than the cursor must not rewind it.
	ingestOne(rec, Reading{TagIndex: 0, Time: want - 2*frame, Phase: 1, RSS: -60})
	if got := rec.FrameCursor(); got < want {
		t.Fatalf("late reading rewound cursor to %v", got)
	}

	// SkipTo after ingest started is a no-op: it only positions a fresh
	// recognizer (the restore path), never discards live state.
	rec2 := NewRecognizer(NewPipeline(grid, cal), nil)
	ingestOne(rec2, Reading{TagIndex: 0, Time: frame, Phase: 1, RSS: -60})
	cursorBefore := rec2.FrameCursor()
	rec2.SkipTo(time.Minute)
	if got := rec2.FrameCursor(); got != cursorBefore {
		t.Fatalf("SkipTo moved a live recognizer from %v to %v", cursorBefore, got)
	}
}
