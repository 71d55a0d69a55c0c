package engine_test

import (
	"errors"
	"os"
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

// toReadings converts synthesized reports into push-ready readings.
func toReadings(reports []llrp.TagReport) []core.Reading {
	out := make([]core.Reading, 0, len(reports))
	for _, rep := range reports {
		out = append(out, live.ReadingFromReport(rep))
	}
	return out
}

// TestEngineCloseIdempotent pins the shutdown contract: the second
// Close returns the first call's results instead of re-draining (or
// panicking on closed channels), so signal handlers and defers can
// both call it.
func TestEngineCloseIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 1, Obs: reg})
	if err := eng.RunStream("plate-0", newReplaySource(t, 56, "IT", reg)); err != nil {
		t.Fatal(err)
	}
	first := eng.Close()
	second := eng.Close()
	if len(first) != 1 || first[0].Letters != "IT" {
		t.Fatalf("first Close: %+v", first)
	}
	if len(second) != len(first) || second[0].ID != first[0].ID ||
		second[0].Letters != first[0].Letters || second[0].Readings != first[0].Readings {
		t.Errorf("second Close diverged: %+v vs %+v", second, first)
	}
	// The engine stays safely inert after close.
	if push(eng, "plate-0", []core.Reading{{}}) {
		t.Error("PushBatch accepted a batch after Close")
	}
	if _, ok := eng.EvictStream("plate-0"); ok {
		t.Error("EvictStream succeeded after Close")
	}
	if err := eng.AdoptStream("ghost", supervise.Checkpoint{}); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("AdoptStream after Close err = %v, want ErrClosed", err)
	}
}

// TestEngineEvictAdoptRoundTrip moves a calibrated stream between two
// engines by checkpoint — the donor and receiver halves of a cluster
// migration — and demands the receiver finish the word with the
// migrated calibration: no store, no prelude replay, no
// recalibration.
func TestEngineEvictAdoptRoundTrip(t *testing.T) {
	reg1 := obs.NewRegistry()
	eng1 := engine.New(engine.Config{Workers: 1, Obs: reg1})
	if err := eng1.RunStream("plate-0", newReplaySource(t, 56, "IT", reg1)); err != nil {
		t.Fatal(err)
	}

	// Unknown streams and uncalibrated streams are not evictable.
	if _, ok := eng1.EvictStream("ghost"); ok {
		t.Error("evicted a stream that does not exist")
	}

	cp, ok := eng1.EvictStream("plate-0")
	if !ok {
		t.Fatal("calibrated stream refused eviction")
	}
	if cp.Stream != "plate-0" || cp.FrameCursor == 0 {
		t.Fatalf("checkpoint malformed: %+v", cp)
	}
	// A second evict finds nothing: the state left with the first.
	if _, ok := eng1.EvictStream("plate-0"); ok {
		t.Error("evicted the same stream twice")
	}
	res1 := eng1.Close()
	if len(res1) != 1 || res1[0].Letters != "IT" {
		t.Fatalf("donor results: %+v", res1)
	}
	if v := reg1.Snapshot().Value("engine_streams_evicted_total"); v != 1 {
		t.Errorf("engine_streams_evicted_total = %v, want 1", v)
	}

	// Receiver: adopt, then continue the same stream clock with a new
	// word.
	reg2 := obs.NewRegistry()
	eng2 := engine.New(engine.Config{Workers: 1, Obs: reg2})
	if err := eng2.AdoptStream("plate-0", cp); err != nil {
		t.Fatal(err)
	}
	if err := eng2.AdoptStream("plate-0", cp); !errors.Is(err, engine.ErrStreamExists) {
		t.Errorf("double adopt err = %v, want ErrStreamExists", err)
	}

	reports, err := replay.Synthesize(56, "LC", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	offset := cp.StreamTime + time.Second
	for i := range reports {
		reports[i].Timestamp += offset
	}
	src := &replaySource{src: replay.NewSource(reports, replay.Options{Speed: 50})}
	if err := eng2.RunStream("plate-0", src); err != nil {
		t.Fatal(err)
	}
	res2 := eng2.Close()
	if len(res2) != 1 || res2[0].Letters != "LC" || !res2[0].Calibrated {
		t.Fatalf("receiver results: %+v", res2)
	}
	snap := reg2.Snapshot()
	if v := snap.Value("engine_streams_adopted_total"); v != 1 {
		t.Errorf("engine_streams_adopted_total = %v, want 1", v)
	}
	if v := snap.Value("checkpoint_restore_total", obs.L("outcome", "restored")); v != 0 {
		t.Errorf("checkpoint_restore_total{outcome=restored} = %v, want 0 (adoption, not store restore)", v)
	}
}

// TestEngineAdoptRejectsUncalibratedStream pins the donor-side guard
// from the receiver's view: a stream mid-prelude has no checkpoint to
// give, so the migration layer sees ok=false instead of a torn
// half-calibration.
func TestEngineAdoptRejectsUncalibratedStream(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 1, Obs: reg})
	defer eng.Close()
	reports, err := replay.Synthesize(56, "I", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// One early slice of the prelude: the stream exists but cannot
	// have calibrated.
	cut := 0
	for cut < len(reports) && reports[cut].Timestamp < 500*time.Millisecond {
		cut++
	}
	if !push(eng, "plate-0", toReadings(reports[:cut])) {
		t.Fatal("push rejected")
	}
	eng.FlushStream("plate-0") // barrier: the batch is processed
	if _, ok := eng.EvictStream("plate-0"); ok {
		t.Error("evicted an uncalibrated stream")
	}
}

// TestEngineRestoreOutcomeCounters walks the checkpoint restore path
// through all four outcomes — restored, stale, corrupt, missing — and
// demands each land on its checkpoint_restore_total label.
func TestEngineRestoreOutcomeCounters(t *testing.T) {
	dir := t.TempDir()
	store, err := supervise.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the store with a real checkpoint.
	reg0 := obs.NewRegistry()
	eng0 := engine.New(engine.Config{Workers: 1, Obs: reg0, Checkpoints: store})
	if err := eng0.RunStream("plate-0", newReplaySource(t, 56, "IT", reg0)); err != nil {
		t.Fatal(err)
	}
	eng0.Close()
	cp, err := store.Load("plate-0")
	if err != nil {
		t.Fatal(err)
	}

	outcome := func(reg *obs.Registry, want string) {
		t.Helper()
		snap := reg.Snapshot()
		for _, o := range []string{"restored", "stale", "corrupt", "missing"} {
			wantV := 0.0
			if o == want {
				wantV = 1
			}
			if v := snap.Value("checkpoint_restore_total", obs.L("outcome", o)); v != wantV {
				t.Errorf("checkpoint_restore_total{outcome=%s} = %v, want %v", o, v, wantV)
			}
		}
	}
	touch := func(reg *obs.Registry, st *supervise.Store) {
		t.Helper()
		eng := engine.New(engine.Config{Workers: 1, Obs: reg, Checkpoints: st,
			CheckpointMaxAge: time.Minute})
		batch, err := replay.Synthesize(56, "I", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !push(eng, "plate-0", toReadings(batch[:50])) {
			t.Fatal("push rejected")
		}
		eng.FlushStream("plate-0") // barrier: stream creation happened
		eng.Close()
	}

	// Restored: fresh checkpoint in place.
	regR := obs.NewRegistry()
	touch(regR, store)
	outcome(regR, "restored")

	// Stale: same file, clock pushed past the bound.
	staleStore, err := supervise.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	staleStore.Now = func() time.Time { return cp.SavedAt.Add(2 * time.Minute) }
	regS := obs.NewRegistry()
	touch(regS, staleStore)
	outcome(regS, "stale")

	// Corrupt: scribble over the checkpoint file.
	if err := os.WriteFile(store.Path("plate-0"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	regC := obs.NewRegistry()
	touch(regC, store)
	outcome(regC, "corrupt")

	// Missing: no file at all.
	if err := os.Remove(store.Path("plate-0")); err != nil {
		t.Fatal(err)
	}
	regM := obs.NewRegistry()
	touch(regM, store)
	outcome(regM, "missing")
}
