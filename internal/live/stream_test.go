package live_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// streamRun feeds connections to a fresh stream in batches of size
// batch, as a session would deliver them, and returns its events
// (summarized), the stream, and how many readings its recognizer
// accepted.
func streamRun(t *testing.T, batch int, conns ...[]llrp.TagReport) ([]string, *live.Stream, float64) {
	t.Helper()
	reg := obs.NewRegistry()
	st := live.NewStream(live.Config{CalibDuration: 3 * time.Second, Obs: reg})
	var got []string
	note := func(evs []core.Event) {
		for _, ev := range evs {
			switch ev.Kind {
			case core.StrokeDetected:
				got = append(got, fmt.Sprintf("stroke %v %v..%v at %v", ev.Stroke.Motion, ev.Span.Start, ev.Span.End, ev.At))
			case core.LetterDeduced:
				got = append(got, fmt.Sprintf("letter %c at %v", ev.Letter, ev.At))
			}
		}
	}
	b := core.GetBatch()
	defer core.PutBatch(b)
	for _, reps := range conns {
		for i := 0; i < len(reps); i += batch {
			b.Reset()
			live.AppendReports(b, reps[i:min(i+batch, len(reps))])
			evs, err := st.IngestBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			note(evs)
		}
	}
	note(st.Flush())
	snap := reg.Snapshot()
	accepted := snap.Value("rfipad_readings_total") -
		snap.Value("rfipad_readings_dropped_total", obs.L("reason", "duplicate")) -
		snap.Value("rfipad_readings_dropped_total", obs.L("reason", "late"))
	return got, st, accepted
}

// TestStreamResumeOverlapIsInvisible pins the resume seam at the stream
// layer: a resumed session replays reports from 250 ms before the last
// one it delivered (replay.DefaultResumeOverlap). Wherever the seam
// lands — inside the prelude, just before or just after the reading
// that completes it, or mid-word — the stream must calibrate and
// recognize exactly as it does from one uninterrupted connection, its
// recognizer accepting the same readings.
func TestStreamResumeOverlapIsInvisible(t *testing.T) {
	reps, err := replay.Synthesize(12, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, ref, wantAccepted := streamRun(t, 64, reps)
	if len(want) == 0 {
		t.Fatal("reference run recognized nothing")
	}
	refCP, _ := ref.Checkpoint("s")

	boundary := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp >= 3*time.Second })
	midWord := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp >= 7*time.Second })
	seams := map[string]int{
		"mid-prelude":        boundary / 2,
		"before-boundary":    boundary,
		"after-boundary":     boundary + 1,
		"after-boundary+100": boundary + 100,
		"mid-word":           midWord,
	}
	for name, k := range seams {
		t.Run(name, func(t *testing.T) {
			last := reps[k-1].Timestamp
			from := sort.Search(len(reps), func(i int) bool {
				return reps[i].Timestamp > last-replay.DefaultResumeOverlap
			})
			got, st, accepted := streamRun(t, 64, reps[:k], reps[from:])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seam after report %d (%v):\n got %q\nwant %q", k, last, got, want)
			}
			if accepted != wantAccepted {
				t.Errorf("recognizer accepted %v readings, want %v", accepted, wantAccepted)
			}
			cp, _ := st.Checkpoint("s")
			if !reflect.DeepEqual(cp, refCP) {
				t.Errorf("checkpoint differs from the uninterrupted run's (cursor %v vs %v)", cp.FrameCursor, refCP.FrameCursor)
			}
		})
	}
}

// TestStreamSkipsPreludeReadingsInsideABatch feeds the whole capture
// as one batch with redelivered prelude readings scattered through its
// recognized part, as a reordering transport could deliver them: the
// stream must skip each one and recognize every run between them.
func TestStreamSkipsPreludeReadingsInsideABatch(t *testing.T) {
	reps, err := replay.Synthesize(12, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, _, wantAccepted := streamRun(t, 64, reps)
	boundary := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp >= 3*time.Second })
	mixed := append([]llrp.TagReport(nil), reps[:boundary+1]...)
	for k, r := range reps[boundary+1:] {
		mixed = append(mixed, r)
		if k%50 == 0 {
			mixed = append(mixed, reps[k%(boundary+1)])
		}
	}
	got, _, accepted := streamRun(t, len(mixed), mixed)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q\nwant %q", got, want)
	}
	if accepted != wantAccepted {
		t.Errorf("recognizer accepted %v readings, want %v", accepted, wantAccepted)
	}
}

// TestStreamCheckpointCursorStartsAtBoundary pins where a stream that
// has calibrated but recognized nothing yet resumes: at the frame of
// the reading that completed its prelude, not at frame 0, so a restore
// never feeds the prelude's tail to the recognizer.
func TestStreamCheckpointCursorStartsAtBoundary(t *testing.T) {
	reps, err := replay.Synthesize(12, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	boundary := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp >= 3*time.Second })
	_, st, _ := streamRun(t, 64, reps[:boundary+1])
	if !st.Calibrated() {
		t.Fatal("the boundary reading did not complete calibration")
	}
	cp, ok := st.Checkpoint("s")
	if !ok {
		t.Fatal("calibrated stream has no checkpoint")
	}
	at := reps[boundary].Timestamp
	if want := at - at%(100*time.Millisecond); cp.FrameCursor != want {
		t.Errorf("FrameCursor = %v, want %v (the frame of the boundary reading at %v)", cp.FrameCursor, want, at)
	}
}
