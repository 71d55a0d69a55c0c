package engine_test

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// framesOf serves a capture in fixed-size report frames, then ends.
type framesOf struct {
	reps []llrp.TagReport
	size int
}

func (f *framesOf) NextReports() ([]llrp.TagReport, error) {
	if len(f.reps) == 0 {
		return nil, llrp.ErrStreamEnded
	}
	k := min(f.size, len(f.reps))
	frame := f.reps[:k]
	f.reps = f.reps[k:]
	return frame, nil
}

// outlierRun is what one capture gave through engine.RunStream: its
// events, the readings its clock dropped as ahead and as late, and the
// checkpoint the engine saved at drain.
type outlierRun struct {
	events      []core.Event
	ahead, late float64
	cp          supervise.Checkpoint
}

// runCapture drains reps through a one-worker, checkpointing engine in
// 256-report frames.
func runCapture(t *testing.T, reps []llrp.TagReport) outlierRun {
	t.Helper()
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var run outlierRun
	eng := engine.New(engine.Config{Workers: 1, Obs: reg, Checkpoints: store,
		OnEvent: func(_ engine.StreamID, ev core.Event) { run.events = append(run.events, ev) }})
	if err := eng.RunStream("plate", &framesOf{reps: reps, size: 256}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	snap := reg.Snapshot()
	run.ahead = snap.Value("rfipad_readings_dropped_total", obs.L("reason", "ahead"))
	run.late = snap.Value("rfipad_readings_dropped_total", obs.L("reason", "late"))
	if run.cp, err = store.Load("plate"); err != nil {
		t.Fatalf("no checkpoint saved at drain: %v", err)
	}
	return run
}

// TestRunStreamOutliersCostNothing feeds captures through
// engine.RunStream, the path a reader session takes, clean and with one
// extra report stamped far off: 60 s ahead at 8 s, mid-word; 60 s
// ahead at 1 s, inside the calibration prelude; 60 s ahead just before
// the first report at or after 5 s, next to the jump over the empty
// gap between prelude and word (for BOX, between that jump's first two
// readings); and 6 s behind at 8 s, stamped before the calibration
// boundary. Every run must emit exactly the clean run's events, count
// its outlier once, as ahead or as late, and save the clean run's
// checkpoint clock and frame cursor.
func TestRunStreamOutliersCostNothing(t *testing.T) {
	captures := []struct {
		seed int64
		word string
	}{{2201, "THE"}, {2202, "BOX"}, {7, "HELLO"}}
	outliers := []struct {
		name   string
		at     time.Duration // the outlier goes before the first report at or after at
		offset time.Duration // and is stamped this far from that report
		ahead  bool
	}{
		{"60s ahead at 8s", 8 * time.Second, time.Minute, true},
		{"60s ahead at 1s", time.Second, time.Minute, true},
		{"60s ahead before 5s", 5 * time.Second, time.Minute, true},
		{"6s behind at 8s", 8 * time.Second, -6 * time.Second, false},
	}
	for _, c := range captures {
		reps, err := replay.Synthesize(c.seed, c.word, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clean := runCapture(t, reps)
		if len(clean.events) == 0 {
			t.Fatalf("%d %s: the clean capture emits no events", c.seed, c.word)
		}
		for _, o := range outliers {
			k := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp >= o.at })
			glitch := reps[k]
			glitch.Timestamp += o.offset
			got := runCapture(t, slices.Insert(slices.Clone(reps), k, glitch))
			name := c.word + "/" + o.name
			if !reflect.DeepEqual(got.events, clean.events) {
				t.Errorf("%s: %d events, the clean capture's %d differ", name, len(got.events), len(clean.events))
			}
			wantAhead, wantLate := clean.ahead, clean.late+1
			if o.ahead {
				wantAhead, wantLate = clean.ahead+1, clean.late
			}
			if got.ahead != wantAhead || got.late != wantLate {
				t.Errorf("%s: %v dropped as ahead and %v as late, want %v and %v",
					name, got.ahead, got.late, wantAhead, wantLate)
			}
			if got.cp.StreamTime != clean.cp.StreamTime || got.cp.FrameCursor != clean.cp.FrameCursor {
				t.Errorf("%s: checkpoint at %v, cursor %v; the clean run's at %v, cursor %v",
					name, got.cp.StreamTime, got.cp.FrameCursor, clean.cp.StreamTime, clean.cp.FrameCursor)
			}
		}
	}
}
