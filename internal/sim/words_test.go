package sim

import (
	"math/rand"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/hand"
	"rfipad/internal/scene"
)

func TestWriteWordStructure(t *testing.T) {
	s := newSystem(t, 31, scene.Config{})
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(1)))
	ws, err := WriteWord(synth, "HI", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.LetterSpans) != 2 {
		t.Fatalf("letter spans = %d", len(ws.LetterSpans))
	}
	// H has 3 strokes, I has 1.
	if len(ws.Script.Segments) != 4 {
		t.Fatalf("segments = %d", len(ws.Script.Segments))
	}
	// Letters are separated by the inter-letter gap.
	gap := ws.LetterSpans[1].Start - ws.LetterSpans[0].End
	if gap < InterLetterGap-time.Millisecond {
		t.Errorf("inter-letter gap = %v", gap)
	}
	// Segments are inside their letters' spans and increasing.
	for i := 1; i < len(ws.Script.Segments); i++ {
		if ws.Script.Segments[i].Start <= ws.Script.Segments[i-1].End {
			t.Errorf("segments overlap at %d", i)
		}
	}
	if _, err := WriteWord(synth, "H!", nil); err == nil {
		t.Error("invalid letter accepted")
	}
}

func TestWordRecognizedOnline(t *testing.T) {
	// The §III-C2 future-work scenario: a succession of letters
	// recognized from one continuous capture.
	s := newSystem(t, 32, scene.Config{})
	cal, err := s.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(s.Grid, cal)
	synth := s.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(2)))
	ws, err := WriteWord(synth, "HI", nil)
	if err != nil {
		t.Fatal(err)
	}
	readings := decode(s.RunScript(ws.Script))

	rec := core.NewRecognizer(p, nil)
	got := ""
	collect := func(evs []core.Event) {
		for _, ev := range evs {
			if ev.Kind == core.LetterDeduced && ev.LetterOK {
				got += string(ev.Letter)
			}
		}
	}
	collect(ingestEach(rec, readings))
	collect(rec.Flush(ws.Script.Duration() + 3*time.Second))
	if got != "HI" {
		t.Errorf("recognized %q, want HI", got)
	}
}
