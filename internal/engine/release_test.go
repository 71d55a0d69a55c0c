package engine

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// pushCapture synthesizes a capture and pushes it into the engine in
// 256-report batches, retrying refused ones. It returns the reports.
func pushCapture(t *testing.T, e *Engine, id StreamID, seed int64, word string) []llrp.TagReport {
	t.Helper()
	reps, err := replay.Synthesize(seed, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pushReports(e, id, reps)
	return reps
}

// pushReports pushes reports into the engine in 256-report batches,
// retrying refused ones.
func pushReports(e *Engine, id StreamID, reps []llrp.TagReport) {
	for i := 0; i < len(reps); i += 256 {
		b := core.GetBatch()
		live.AppendReports(b, reps[i:min(i+256, len(reps))])
		for !e.PushBatch(id, b) {
			runtime.Gosched()
		}
	}
}

// waitIngested blocks until the engine has ingested n readings.
func waitIngested(t *testing.T, reg *obs.Registry, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Value("engine_readings_total") < float64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("engine ingested %v of %d readings", reg.Snapshot().Value("engine_readings_total"), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineReleaseSkipsQuarantined drains an engine whose final flush
// panics in one stream's event handler: Close must release every other
// stream's buffers and never the quarantined stream's, which the panic
// may have left half-written. A released stream panics on use, so each
// stream's state machine, captured from its shard, says which it was.
func TestEngineReleaseSkipsQuarantined(t *testing.T) {
	reg := obs.NewRegistry()
	var (
		mu       sync.Mutex
		streams  = map[StreamID]*live.Stream{}
		draining atomic.Bool
		e        *Engine
	)
	e = New(Config{Workers: 2, Obs: reg, OnEvent: func(id StreamID, ev core.Event) {
		// Runs on the stream's shard goroutine, which owns its state.
		mu.Lock()
		streams[id] = e.shardFor(id).streams[id].st
		mu.Unlock()
		if id == "bad" && draining.Load() {
			panic("handler detonated on the final flush")
		}
	}})
	ids := []StreamID{"good-0", "good-1", "bad"}
	offered := 0
	for i, id := range ids {
		offered += len(pushCapture(t, e, id, 2401+int64(i), "LT"))
	}
	waitIngested(t, reg, offered)
	draining.Store(true)
	results := e.Close()

	for _, res := range results {
		if quarantined := res.Err != nil; quarantined != (res.ID == "bad") {
			t.Fatalf("stream %s: quarantined %v (err %v); only bad's final flush panics", res.ID, quarantined, res.Err)
		}
	}
	for _, id := range ids {
		st := streams[id]
		if st == nil {
			t.Fatalf("stream %s emitted no event before the drain", id)
		}
		released := func() (released bool) {
			defer func() { released = recover() != nil }()
			st.IngestBatch(new(core.ReadingBatch))
			return false
		}()
		if want := id != "bad"; released != want {
			t.Errorf("stream %s: released %v after Close, want %v", id, released, want)
		}
	}
}

// TestEngineReleaseOnEvictKeepsCheckpoint evicts a stream, which
// releases its buffers, lets another stream grow into them, and
// requires the checkpoint EvictStream returned to equal that of the
// same stream state machine fed the same batches and never released.
func TestEngineReleaseOnEvictKeepsCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	reps := pushCapture(t, e, "plate", 2411, "HI")
	waitIngested(t, reg, len(reps))
	cp, ok := e.EvictStream("plate")
	if !ok {
		t.Fatal("evicting a calibrated stream failed")
	}
	more := pushCapture(t, e, "next", 2412, "HI")
	waitIngested(t, reg, len(reps)+len(more))

	ref := live.NewStream(live.Config{Obs: obs.NewRegistry()})
	var b core.ReadingBatch
	for i := 0; i < len(reps); i += 256 {
		b.Reset()
		live.AppendReports(&b, reps[i:min(i+256, len(reps))])
		if _, err := ref.IngestBatch(&b); err != nil {
			t.Fatal(err)
		}
	}
	want, ok := ref.Checkpoint("plate")
	if !ok {
		t.Fatal("the reference stream did not calibrate")
	}
	if !reflect.DeepEqual(cp, want) {
		t.Errorf("EvictStream checkpoint %+v, want %+v as without release", cp, want)
	}
}
