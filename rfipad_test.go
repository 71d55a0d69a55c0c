package rfipad

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// decode holds reports as the columns the pipeline takes.
func decode(reports []TagReport) *ReadingBatch {
	b := new(ReadingBatch)
	AppendReports(b, reports)
	return b
}

// ingestEach feeds a capture to rec one reading at a time, as
// one-element batches, and returns the events.
func ingestEach(rec *Recognizer, capture *ReadingBatch) []Event {
	var events []Event
	for k := 0; k < capture.Len(); k++ {
		one := capture.Slice(k, k+1)
		events = append(events, rec.IngestBatch(&one)...)
	}
	return events
}

func TestSimulatorEndToEnd(t *testing.T) {
	sim, err := NewSimulator(SimulatorConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g := sim.Grid(); g.Rows != 5 || g.Cols != 5 {
		t.Fatalf("grid = %+v", g)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Offline path.
	p := sim.NewPipeline(cal)
	want := M(Horizontal, Forward)
	reports, dur := sim.PerformMotion(want, 42)
	results := p.RecognizeStream(decode(reports), nil, 0, dur+time.Second)
	if len(results) != 1 || !results[0].Result.Ok {
		t.Fatalf("offline recognition failed: %d results", len(results))
	}
	if got := results[0].Result.Motion; got != want {
		t.Errorf("motion = %v, want %v", got, want)
	}

	// Streaming path on a letter.
	rec := sim.NewRecognizer(cal)
	lr, ldur, err := sim.WriteLetter('T', 43)
	if err != nil {
		t.Fatal(err)
	}
	var letter rune
	ingest := func(evs []Event) {
		for _, ev := range evs {
			if ev.Kind == LetterDeduced && ev.LetterOK {
				letter = ev.Letter
			}
		}
	}
	ingest(ingestEach(rec, decode(lr)))
	ingest(rec.Flush(ldur + 2*time.Second))
	if letter != 'T' {
		t.Errorf("letter = %q, want T", letter)
	}
}

func TestSimulatorConfigValidation(t *testing.T) {
	if _, err := NewSimulator(SimulatorConfig{Placement: "sideways"}); err == nil {
		t.Error("bad placement accepted")
	}
	if _, err := NewSimulator(SimulatorConfig{Location: 9}); err == nil {
		t.Error("bad location accepted")
	}
	if _, err := NewSimulator(SimulatorConfig{Placement: LOS, Location: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestVocabularyHelpers(t *testing.T) {
	if got := len(AllMotions()); got != 13 {
		t.Errorf("AllMotions = %d", got)
	}
	strokes, ok := LetterStrokes('H')
	if !ok || len(strokes) != 3 {
		t.Errorf("LetterStrokes(H) = %d,%v", len(strokes), ok)
	}
	if _, ok := LetterStrokes('?'); ok {
		t.Error("LetterStrokes(?) should fail")
	}
	if got := len(Volunteers()); got != 10 {
		t.Errorf("Volunteers = %d", got)
	}
	if DefaultUser().Speed <= 0 {
		t.Error("DefaultUser has no speed")
	}
}

func TestTagLookups(t *testing.T) {
	sim, err := NewSimulator(SimulatorConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	epc, ok := sim.TagEPC(2, 3)
	if !ok {
		t.Fatal("TagEPC(2,3) not found")
	}
	if idx := sim.TagIndexByEPC(epc); idx != 2*5+3 {
		t.Errorf("TagIndexByEPC = %d", idx)
	}
	if _, ok := sim.TagEPC(9, 9); ok {
		t.Error("out-of-range TagEPC should fail")
	}
	if idx := sim.TagIndexByEPC(EPC{}); idx != -1 {
		t.Errorf("unknown EPC index = %d", idx)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() []TagReport {
		s, err := NewSimulator(SimulatorConfig{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := s.PerformMotion(M(ArcLeft, Forward), 5)
		return r
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestWriteWordStreaming(t *testing.T) {
	sim, err := NewSimulator(SimulatorConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reports, dur, err := sim.WriteWord("IT", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewRecognizer(cal)
	got := ""
	collect := func(evs []Event) {
		for _, ev := range evs {
			if ev.Kind == LetterDeduced && ev.LetterOK {
				got += string(ev.Letter)
			}
		}
	}
	collect(ingestEach(rec, decode(reports)))
	collect(rec.Flush(dur + 3*time.Second))
	if got != "IT" {
		t.Errorf("recognized %q, want IT", got)
	}
	if _, _, err := sim.WriteWord("a1", 3); err == nil {
		t.Error("invalid word accepted")
	}
}

// dropTag filters every report of one tag out of a stream, simulating
// a detached or fully occluded tag.
func dropTag(reports []TagReport, tag EPC) []TagReport {
	out := make([]TagReport, 0, len(reports))
	for _, r := range reports {
		if r.EPC == tag {
			continue
		}
		out = append(out, r)
	}
	return out
}

func TestDegradedGridRecognizesAllShapes(t *testing.T) {
	// A 5×5 array with one dead tag in the middle of the board must
	// still calibrate (the tag is flagged dead, not fatal) and
	// classify all 7 basic motions: the disturbance image interpolates
	// the dead cell from its live neighbors before binarization.
	sim, err := NewSimulator(SimulatorConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const deadIdx = 2*5 + 2 // centre tag — the harshest hole
	dead, _ := sim.TagEPC(2, 2)

	cal, err := Calibrate(decode(dropTag(sim.CollectStatic(3*time.Second), dead)), sim.Grid().NumTags())
	if err != nil {
		t.Fatalf("degraded calibration failed: %v", err)
	}
	if cal.DeadCount() != 1 || !cal.IsDead(deadIdx) {
		t.Fatalf("dead count = %d, IsDead(%d) = %v", cal.DeadCount(), deadIdx, cal.IsDead(deadIdx))
	}

	p := sim.NewPipeline(cal)
	shapes := []Shape{Click, Horizontal, Vertical, SlashUp, SlashDown, ArcLeft, ArcRight}
	for _, shape := range shapes {
		want := M(shape, Forward)
		t.Run(want.String(), func(t *testing.T) {
			reports, dur := sim.PerformMotion(want, 42)
			results := p.RecognizeStream(decode(dropTag(reports, dead)), nil, 0, dur+time.Second)
			var got []Motion
			for _, res := range results {
				if res.Result.Ok {
					got = append(got, res.Result.Motion)
				}
			}
			if len(got) != 1 {
				t.Fatalf("recognized %d motions, want 1: %v", len(got), got)
			}
			if got[0].Shape != shape {
				t.Errorf("shape = %v, want %v", got[0].Shape, shape)
			}
		})
	}
}

func TestStreamingToleratesReplayArtifacts(t *testing.T) {
	// Feed a letter through the streaming recognizer with the
	// artifacts a reconnecting transport produces — duplicated batches
	// and modest reordering — and require the same letter out.
	sim, err := NewSimulator(SimulatorConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reports, dur, err := sim.WriteLetter('L', 9)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate a slab of the stream (replay overlap) and swap
	// adjacent reports here and there (frame reordering).
	mangled := make([]TagReport, 0, len(reports)*5/4)
	for i, r := range reports {
		mangled = append(mangled, r)
		if i%4 == 1 && len(mangled) >= 2 {
			n := len(mangled)
			mangled[n-1], mangled[n-2] = mangled[n-2], mangled[n-1]
		}
		if i > 0 && i%10 == 0 {
			// Replay the previous 5 reports.
			mangled = append(mangled, reports[i-5:i]...)
		}
	}

	rec := sim.NewRecognizer(cal)
	var letter rune
	collect := func(evs []Event) {
		for _, ev := range evs {
			if ev.Kind == LetterDeduced && ev.LetterOK {
				letter = ev.Letter
			}
		}
	}
	collect(ingestEach(rec, decode(mangled)))
	collect(rec.Flush(dur + 2*time.Second))
	if letter != 'L' {
		t.Errorf("letter = %q, want L despite duplicates and reordering", letter)
	}
}

func TestFastMACSimulator(t *testing.T) {
	count := func(fast bool) int {
		s, err := NewSimulator(SimulatorConfig{Seed: 13, FastMAC: fast})
		if err != nil {
			t.Fatal(err)
		}
		return len(s.CollectStatic(2 * time.Second))
	}
	if fast, slow := count(true), count(false); fast < slow*3/2 {
		t.Errorf("fast MAC reads %d should be well above default %d", fast, slow)
	}
}

// TestRecognizerWindowsMatchRecordPath checks that the streaming
// recognizer, which hands the pipeline ranges of its history columns,
// recognizes every stroke window exactly as Pipeline.RecognizeWindow
// does from the same window's reports decoded on their own — and as it
// does from a shuffled copy of those reports with replayed duplicates
// mixed in, which the per-tag split must sort and deduplicate back to
// the same window.
func TestRecognizerWindowsMatchRecordPath(t *testing.T) {
	sim, err := NewSimulator(SimulatorConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.NewPipeline(cal)
	rng := rand.New(rand.NewSource(6))
	strokes := 0
	for i, word := range []string{"HI", "BOX", "MUSIC"} {
		reports, dur, err := sim.WriteWord(word, int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		// The history holds readings time-sorted, first arrival of each
		// (tag, time) kept; the decoded windows come from the same view.
		slices.SortStableFunc(reports, func(a, b TagReport) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
		reports = slices.CompactFunc(reports, func(a, b TagReport) bool {
			return a.Timestamp == b.Timestamp && a.EPC == b.EPC
		})
		rec := sim.NewRecognizer(cal)
		var events []Event
		var b ReadingBatch
		for k := 0; k < len(reports); k += 256 {
			b.Reset()
			AppendReports(&b, reports[k:min(k+256, len(reports))])
			events = append(events, rec.IngestBatch(&b)...)
		}
		events = append(events, rec.Flush(dur+2*time.Second)...)
		for _, ev := range events {
			if ev.Kind != StrokeDetected {
				continue
			}
			strokes++
			lo, _ := slices.BinarySearchFunc(reports, ev.Span.Start, func(r TagReport, at time.Duration) int { return cmp.Compare(r.Timestamp, at) })
			hi, _ := slices.BinarySearchFunc(reports, ev.Span.End, func(r TagReport, at time.Duration) int { return cmp.Compare(r.Timestamp, at) })
			win := reports[lo:hi]
			if got := p.RecognizeWindow(*decode(win)); !reflect.DeepEqual(got, ev.Stroke) {
				t.Errorf("%s, stroke at %v: decoded window recognized %+v, history columns %+v", word, ev.Span, got, ev.Stroke)
			}
			messy := slices.Clone(win)
			for d := len(win) / 10; d > 0; d-- {
				messy = append(messy, win[rng.Intn(len(win))])
			}
			rng.Shuffle(len(messy), func(i, j int) { messy[i], messy[j] = messy[j], messy[i] })
			if got := p.RecognizeWindow(*decode(messy)); !reflect.DeepEqual(got, ev.Stroke) {
				t.Errorf("%s, stroke at %v: shuffled, duplicated window recognized %+v, history columns %+v", word, ev.Span, got, ev.Stroke)
			}
		}
	}
	t.Logf("%d stroke windows compared", strokes)
	if strokes < 15 {
		t.Fatalf("only %d strokes recognized; the captures should give about 20", strokes)
	}
}
