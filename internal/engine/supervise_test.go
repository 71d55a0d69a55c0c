package engine_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// runTrio drives three streams over ONE shard — victim plus two
// siblings — and returns the results by ID. panicOn, when non-empty,
// makes the engine's event callback panic for that stream: the
// configured chaos for the quarantine test.
func runTrio(t *testing.T, panicOn engine.StreamID, reg *obs.Registry) map[engine.StreamID]engine.StreamResult {
	t.Helper()
	eng := engine.New(engine.Config{
		Workers: 1,
		Obs:     reg,
		OnEvent: func(id engine.StreamID, ev core.Event) {
			if id == panicOn {
				panic("injected event-handler fault")
			}
		},
	})
	words := map[engine.StreamID]string{"victim": "IT", "sib-a": "LC", "sib-b": "TI"}
	seeds := map[engine.StreamID]int64{"victim": 40, "sib-a": 41, "sib-b": 42}
	var wg sync.WaitGroup
	for id := range words {
		src := newReplaySource(t, seeds[id], words[id], reg)
		wg.Add(1)
		go func(id engine.StreamID) {
			defer wg.Done()
			// A panicking handler quarantines the stream server-side;
			// the source-side drain still completes without error.
			if err := eng.RunStream(id, src); err != nil {
				t.Errorf("stream %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	byID := map[engine.StreamID]engine.StreamResult{}
	for _, res := range eng.Close() {
		byID[res.ID] = res
	}
	return byID
}

// TestEnginePanicQuarantinesStream is the tentpole chaos scenario: a
// stream whose event handler panics mid-letter must be quarantined —
// state dropped, terminal error recorded, panic counted — while the
// other streams on the same shard finish recognition with results
// identical to a fault-free control run.
func TestEnginePanicQuarantinesStream(t *testing.T) {
	control := runTrio(t, "", obs.NewRegistry())
	for id, res := range control {
		if res.Err != nil {
			t.Fatalf("control stream %s failed: %v", id, res.Err)
		}
	}

	reg := obs.NewRegistry()
	chaos := runTrio(t, "victim", reg)

	victim := chaos["victim"]
	if victim.Err == nil {
		t.Fatal("victim has no terminal error after its handler panicked")
	}
	if !strings.Contains(victim.Err.Error(), "quarantined") {
		t.Errorf("victim error %q does not mention quarantine", victim.Err)
	}
	if victim.Letters != "" {
		t.Errorf("victim kept recognizing after quarantine: %q", victim.Letters)
	}

	// Shard siblings: same results as the fault-free control run.
	for _, id := range []engine.StreamID{"sib-a", "sib-b"} {
		if chaos[id].Err != nil {
			t.Errorf("sibling %s failed: %v", id, chaos[id].Err)
		}
		if chaos[id].Letters != control[id].Letters {
			t.Errorf("sibling %s recognized %q with chaos, %q without — quarantine leaked",
				id, chaos[id].Letters, control[id].Letters)
		}
		if chaos[id].Strokes != control[id].Strokes {
			t.Errorf("sibling %s strokes %d with chaos, %d without",
				id, chaos[id].Strokes, control[id].Strokes)
		}
	}

	snap := reg.Snapshot()
	if v := snap.Value("engine_stream_panics_total"); v == 0 {
		t.Error("engine_stream_panics_total stayed zero")
	}
	if v := snap.Value("engine_streams_quarantined"); v != 1 {
		t.Errorf("engine_streams_quarantined = %v, want 1", v)
	}
	if v := snap.Value("engine_stream_errors_total"); v != 1 {
		t.Errorf("engine_stream_errors_total = %v, want 1", v)
	}
}

// TestEngineSourcePanicIsolated pins the RunStream recover boundary: a
// source that panics mid-drain becomes a terminal error for that
// stream (flushed, counted), not a crashed worker pool, and siblings
// on the same shard are untouched.
func TestEngineSourcePanicIsolated(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 1, Obs: reg})

	err := eng.RunStream("bomb", panicSource{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RunStream err = %v, want source-panic error", err)
	}

	if err := eng.RunStream("good", newReplaySource(t, 30, "IT", reg)); err != nil {
		t.Fatalf("healthy stream after source panic: %v", err)
	}
	byID := map[engine.StreamID]engine.StreamResult{}
	for _, res := range eng.Close() {
		byID[res.ID] = res
	}
	if res := byID["good"]; res.Letters != "IT" {
		t.Errorf("healthy stream recognized %q, want %q", res.Letters, "IT")
	}
	if v := reg.Snapshot().Value("engine_stream_panics_total"); v == 0 {
		t.Error("engine_stream_panics_total stayed zero")
	}
}

type panicSource struct{}

func (panicSource) NextReports() ([]llrp.TagReport, error) { panic("source detonated") }

// TestEngineCheckpointRestoreSkipsPrelude closes a checkpointing
// engine after a full run, then feeds a second engine (same store) a
// capture time-shifted past the saved frame cursor: the stream must
// restore its calibration — visible on
// checkpoint_restore_total{outcome="restored"} — and recognize the new
// word without a calibration prelude being consumed again.
func TestEngineCheckpointRestoreSkipsPrelude(t *testing.T) {
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	reg1 := obs.NewRegistry()
	eng1 := engine.New(engine.Config{Workers: 1, Obs: reg1, Checkpoints: store})
	if err := eng1.RunStream("plate-0", newReplaySource(t, 56, "IT", reg1)); err != nil {
		t.Fatal(err)
	}
	res1 := eng1.Close()
	if len(res1) != 1 || res1[0].Letters != "IT" || res1[0].Err != nil {
		t.Fatalf("first run: %+v", res1)
	}
	if v := reg1.Snapshot().Value("engine_checkpoints_saved_total"); v == 0 {
		t.Fatal("close wrote no checkpoint")
	}
	cp, err := store.Load("plate-0")
	if err != nil {
		t.Fatal(err)
	}

	// Second life: same stream ID and same simulated deployment (the
	// seed fixes the plate/antenna physics a calibration describes),
	// new word, clock starting where the checkpoint left off (a reader
	// session resuming later in stream time).
	reports, err := replay.Synthesize(56, "LC", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	offset := cp.StreamTime + time.Second
	for i := range reports {
		reports[i].Timestamp += offset
	}
	src := &replaySource{src: replay.NewSource(reports, replay.Options{Speed: 50})}

	reg2 := obs.NewRegistry()
	eng2 := engine.New(engine.Config{Workers: 1, Obs: reg2, Checkpoints: store})
	if err := eng2.RunStream("plate-0", src); err != nil {
		t.Fatal(err)
	}
	res2 := eng2.Close()
	if len(res2) != 1 {
		t.Fatalf("second run results: %+v", res2)
	}
	if res2[0].Err != nil {
		t.Fatalf("restored stream failed: %v", res2[0].Err)
	}
	if !res2[0].Calibrated {
		t.Error("restored stream not marked calibrated")
	}
	if res2[0].Letters != "LC" {
		t.Errorf("restored stream recognized %q, want %q", res2[0].Letters, "LC")
	}
	snap := reg2.Snapshot()
	if v := snap.Value("checkpoint_restore_total", obs.L("outcome", "restored")); v != 1 {
		t.Errorf("checkpoint_restore_total{outcome=restored} = %v, want 1", v)
	}
	if v := snap.Value("engine_streams_calibrated"); v != 1 {
		t.Errorf("engine_streams_calibrated = %v, want 1", v)
	}
}

// TestEngineDrainDeadlineAbandonsBacklog bounds shutdown: with a slow
// event handler and an effectively zero drain budget, Close must
// abandon the queued backlog (counting it) instead of processing every
// pending batch — shutdown latency is bounded by DrainTimeout, not by
// queue depth.
func TestEngineDrainDeadlineAbandonsBacklog(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	var once sync.Once
	eng := engine.New(engine.Config{
		Workers:      1,
		Obs:          reg,
		DrainTimeout: time.Nanosecond,
		OnEvent: func(engine.StreamID, core.Event) {
			// Park the shard on the first event so the mailbox backs up
			// behind it until Close's drain deadline has long expired.
			once.Do(func() { <-release })
		},
	})

	reports, err := replay.Synthesize(52, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]core.Reading, len(reports))
	for i, rep := range reports {
		readings[i] = live.ReadingFromReport(rep)
	}
	const chunk = 200
	for i := 0; i < len(readings); i += chunk {
		push(eng, "plate-0", readings[i:min(i+chunk, len(readings))])
	}

	go func() {
		// Unpark the shard only once Close has begun (and had time to
		// close the shard's stop channel), so the drain starts with the
		// backlog still queued and its deadline passes before the first
		// item is taken, however fast the backlog would be handled.
		for reg.Snapshot().Value("engine_accepting") != 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	done := make(chan []engine.StreamResult, 1)
	go func() { done <- eng.Close() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return — drain deadline not enforced")
	}

	snap := reg.Snapshot()
	if v := snap.Value("engine_drain_abandoned_total"); v == 0 {
		t.Error("engine_drain_abandoned_total stayed zero despite a parked shard")
	}
	if v := snap.Value("engine_dropped_readings_total"); v == 0 {
		t.Error("abandoned batches not accounted in engine_dropped_readings_total")
	}
	if v := snap.Value("engine_accepting"); v != 0 {
		t.Errorf("engine_accepting = %v after Close, want 0", v)
	}
}
