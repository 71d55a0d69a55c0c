package sim

import (
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/hand"
	"rfipad/internal/scene"
)

func TestLetterSpecsErrors(t *testing.T) {
	if _, err := LetterSpecs('h'); err == nil {
		t.Error("lowercase should fail")
	}
	specs, err := LetterSpecs('H')
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Errorf("H specs = %d", len(specs))
	}
}

func TestEndToEndLetters(t *testing.T) {
	// The paper's headline letter pipeline (Fig. 22/23): write a
	// letter stroke by stroke, segment, recognize, compose.
	s := newSystem(t, 21, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(s.Grid, cal)

	for i, ch := range []rune{'T', 'L', 'H', 'C'} {
		t.Run(string(ch), func(t *testing.T) {
			specs, err := LetterSpecs(ch)
			if err != nil {
				t.Fatal(err)
			}
			synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(int64(300+i))))
			script := synth.Write(specs)
			results := p.RecognizeStream(decode(s.RunScript(script)), nil, 0, script.Duration()+time.Second)
			var obs []core.StrokeObservation
			for _, r := range results {
				if r.Result.Ok {
					obs = append(obs, core.StrokeObservation{Motion: r.Result.Motion, Box: r.Result.Box, CenterX: r.Result.CenterX, CenterY: r.Result.CenterY})
				}
			}
			got, ok := core.ComposeLetter(obs)
			if len(results) != len(specs) {
				for _, r := range results {
					t.Logf("span %v-%v: %v ok=%v", r.Span.Start, r.Span.End, r.Result.Motion, r.Result.Ok)
				}
				t.Fatalf("segmented %d strokes, want %d", len(results), len(specs))
			}
			if !ok || got != ch {
				for _, r := range results {
					t.Logf("stroke %v box %+v", r.Result.Motion, r.Result.Box)
				}
				t.Errorf("deduced %q ok=%v, want %q", got, ok, ch)
			}
		})
	}
}

func TestStreamingRecognizerOnLetter(t *testing.T) {
	// The online engine must emit one stroke event per stroke and a
	// final letter event after the quiet gap.
	s := newSystem(t, 22, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(s.Grid, cal)

	specs, err := LetterSpecs('T')
	if err != nil {
		t.Fatal(err)
	}
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(55)))
	script := synth.Write(specs)
	readings := decode(s.RunScript(script))

	rec := core.NewRecognizer(p, nil)
	var strokes, letters int
	var letter rune
	for _, ev := range ingestEach(rec, readings) {
		switch ev.Kind {
		case core.StrokeDetected:
			strokes++
		case core.LetterDeduced:
			letters++
			letter = ev.Letter
		}
	}
	for _, ev := range rec.Flush(script.Duration() + 2*time.Second) {
		switch ev.Kind {
		case core.StrokeDetected:
			strokes++
		case core.LetterDeduced:
			letters++
			letter = ev.Letter
		}
	}
	if strokes != 2 {
		t.Errorf("stroke events = %d, want 2", strokes)
	}
	if letters != 1 {
		t.Fatalf("letter events = %d, want 1", letters)
	}
	if letter != 'T' {
		t.Errorf("letter = %q, want T", letter)
	}
}
