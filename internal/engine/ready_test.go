package engine

import (
	"testing"
	"time"

	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
	"rfipad/internal/tagmodel"
)

// TestReadyFollowsCalibration pins the readiness rule and the
// engine_dead_tags gauge on a capture with one tag's reports removed:
// not ready before the prelude completes, ready with one dead tag once
// the stream calibrates, not ready after Close, and ready again, with
// the same dead tag and no prelude, as soon as a restarted engine
// restores the stream from its checkpoint.
func TestReadyFollowsCalibration(t *testing.T) {
	const deadTag = 12
	reps, err := replay.Synthesize(56, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var kept []llrp.TagReport
	for _, rep := range reps {
		if tagmodel.SerialOf(rep.EPC)-1 != deadTag {
			kept = append(kept, rep)
		}
	}
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// waitReady polls until the stream has calibrated with its dead tag:
	// engine_streams_calibrated and engine_dead_tags move one after the
	// other, on the shard goroutine.
	waitReady := func(reg *obs.Registry) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for snap := reg.Snapshot(); !Ready(snap) || snap.Value("engine_dead_tags") != 1; snap = reg.Snapshot() {
			if time.Now().After(deadline) {
				t.Fatalf("not ready with one dead tag: ready=%v engine_dead_tags=%v",
					Ready(snap), snap.Value("engine_dead_tags"))
			}
			time.Sleep(time.Millisecond)
		}
	}

	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg, Checkpoints: store})
	defer e.Close()
	if Ready(reg.Snapshot()) {
		t.Fatal("ready before any stream exists")
	}
	cut := 0
	for cut < len(kept) && kept[cut].Timestamp < time.Second {
		cut++
	}
	pushReports(e, "plate", kept[:cut])
	waitIngested(t, reg, cut)
	if Ready(reg.Snapshot()) {
		t.Error("ready one second into a three-second prelude")
	}
	pushReports(e, "plate", kept[cut:])
	waitReady(reg)
	res := e.Close()
	if len(res) != 1 || res[0].DeadTags != 1 {
		t.Fatalf("results %+v, want one stream with one dead tag", res)
	}
	if Ready(reg.Snapshot()) {
		t.Error("ready after Close")
	}

	// A restarted engine restores the stream on its first batch, time
	// shifted past the saved frame cursor.
	cp, err := store.Load("plate")
	if err != nil {
		t.Fatal(err)
	}
	first := append([]llrp.TagReport(nil), kept[:256]...)
	for i := range first {
		first[i].Timestamp += cp.StreamTime + time.Second
	}
	reg2 := obs.NewRegistry()
	e2 := New(Config{Workers: 1, Obs: reg2, Checkpoints: store})
	defer e2.Close()
	pushReports(e2, "plate", first)
	waitReady(reg2)
	if v := reg2.Snapshot().Value("checkpoint_restore_total", obs.L("outcome", "restored")); v != 1 {
		t.Errorf("checkpoint_restore_total{outcome=restored} = %v, want 1", v)
	}
	e2.Close()
	if Ready(reg2.Snapshot()) {
		t.Error("restored engine ready after Close")
	}
}
