package engine_test

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// TestCheckpointRestoreSkipsPrelude is the drain/restore acceptance
// scenario: a run killed right after calibrating (the signal context
// cancelling its session, exactly what SIGTERM does through
// signal.NotifyContext) must leave a checkpoint behind; a restarted
// run against the same store restores it, skips the static prelude,
// recognizes the word anyway, and reports readiness on /readyz while
// it serves — with the restore visible on
// checkpoint_restore_total{outcome="restored"}.
func TestCheckpointRestoreSkipsPrelude(t *testing.T) {
	const word = "IT"
	reports, err := replay.Synthesize(12, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := llrp.NewServer(func() llrp.ReportSource {
		return replay.NewSource(reports, replay.Options{Speed: 10})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	restored := func(reg *obs.Registry) float64 {
		return reg.Snapshot().Value("checkpoint_restore_total", obs.L("outcome", "restored"))
	}

	// Phase 1: run until calibration completes, then cancel — the
	// in-process equivalent of kill -TERM mid-stream.
	reg1 := obs.NewRegistry()
	ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel1()
	sess1, err := llrp.DialSession(ctx1, llrp.SessionConfig{
		Addr:           l.Addr().String(),
		BackoffInitial: 5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		JitterSeed:     3,
		Obs:            reg1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess1.Close()
	go func() {
		for ctx1.Err() == nil {
			if reg1.Snapshot().Value("engine_streams_calibrated") == 1 {
				cancel1()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res1, err := runOne(engine.Config{Obs: reg1, Checkpoints: store}, sess1)
	if err == nil {
		t.Fatal("phase 1 ran to completion; the kill never landed")
	}
	if !res1.Calibrated {
		t.Fatal("phase 1 never calibrated")
	}
	if restored(reg1) != 0 {
		t.Fatal("phase 1 claims a restore with an empty store")
	}
	if v := reg1.Snapshot().Value("engine_checkpoints_saved_total"); v == 0 {
		t.Fatal("kill left no checkpoint behind")
	}
	cp, err := store.Load(string(liveStream))
	if err != nil {
		t.Fatalf("checkpoint not on disk after drain: %v", err)
	}
	if cp.StreamTime < 3*time.Second {
		t.Fatalf("checkpoint stream time %v predates calibration", cp.StreamTime)
	}

	// Phase 2: a fresh process (fresh registry, fresh session) restores
	// the checkpoint. /readyz must flip to 200 while it serves, without
	// any calibration prelude being consumed.
	reg2 := obs.NewRegistry()
	admin, err := obs.StartAdmin("127.0.0.1:0", reg2, nil, func() obs.Health {
		return obs.Health{OK: engine.Ready(reg2.Snapshot())}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	if status := probeReadyz(t, admin.Addr()); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before restore = %d, want 503", status)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	sess2, err := llrp.DialSession(ctx2, llrp.SessionConfig{
		Addr:           l.Addr().String(),
		BackoffInitial: 5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		JitterSeed:     4,
		Obs:            reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()

	type outcome struct {
		res engine.StreamResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runOne(engine.Config{Obs: reg2, Checkpoints: store}, sess2)
		done <- outcome{res, err}
	}()

	// Readiness must be observable while the restored run serves (it
	// drops again on drain, so poll during, not after).
	sawReady := false
	deadline := time.Now().Add(20 * time.Second)
	for !sawReady && time.Now().Before(deadline) {
		if probeReadyz(t, admin.Addr()) == http.StatusOK {
			sawReady = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawReady {
		t.Error("/readyz never reported ready during the restored run")
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("restored run failed: %v (partial %q)", out.err, out.res.Letters)
	}
	if v := restored(reg2); v != 1 {
		t.Errorf("checkpoint_restore_total{outcome=restored} = %v, want 1 (restored run did not use the checkpoint)", v)
	}
	if out.res.Letters != word {
		t.Errorf("restored run recognized %q, want %q", out.res.Letters, word)
	}
}

// TestCheckpointStaleFallsBackToLiveCalibration pins the staleness
// bound end to end: a checkpoint past CheckpointMaxAge is ignored and
// the run calibrates from the prelude as if the store were empty.
func TestCheckpointStaleFallsBackToLiveCalibration(t *testing.T) {
	const word = "IT"
	reports, err := replay.Synthesize(12, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := llrp.NewServer(func() llrp.ReportSource {
		return replay.NewSource(reports, replay.Options{Speed: 25})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Plant a checkpoint that is valid but ancient.
	old := supervise.Checkpoint{
		Stream:      string(liveStream),
		SavedAt:     time.Now().Add(-time.Hour),
		StreamTime:  5 * time.Second,
		FrameCursor: 5 * time.Second,
	}
	if err := store.Save(old); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
		Addr:           l.Addr().String(),
		BackoffInitial: 5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		JitterSeed:     5,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := runOne(engine.Config{
		Obs:              reg,
		Checkpoints:      store,
		CheckpointMaxAge: 15 * time.Minute,
	}, sess)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if v := snap.Value("checkpoint_restore_total", obs.L("outcome", "restored")); v != 0 {
		t.Error("stale checkpoint was restored")
	}
	if v := snap.Value("checkpoint_restore_total", obs.L("outcome", "stale")); v != 1 {
		t.Errorf("checkpoint_restore_total{outcome=stale} = %v, want 1", v)
	}
	if !res.Calibrated {
		t.Error("fallback never calibrated live")
	}
	if res.Letters != word {
		t.Errorf("recognized %q, want %q", res.Letters, word)
	}
	// The drain overwrote the stale checkpoint with a fresh one.
	cp, err := store.Load(string(liveStream))
	if err != nil {
		t.Fatal(err)
	}
	if !cp.SavedAt.After(old.SavedAt) {
		t.Error("drain did not refresh the stale checkpoint")
	}
}

func probeReadyz(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
