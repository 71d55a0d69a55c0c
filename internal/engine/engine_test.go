package engine_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// replaySource adapts a paced replay to the live.ReportSource shape so
// the engine can drain it in-process, without a TCP server in between.
type replaySource struct{ src *replay.Source }

func (r *replaySource) NextReports() ([]llrp.TagReport, error) {
	batch, ok := r.src.Next()
	if !ok {
		return nil, llrp.ErrStreamEnded
	}
	return batch, nil
}

// push offers readings to the engine as one pooled columnar batch
// through its non-blocking intake; a refused batch goes back to the
// pool, as a caller that gives up returns it.
func push(eng *engine.Engine, id engine.StreamID, readings []core.Reading) bool {
	b := core.GetBatch()
	for _, rd := range readings {
		b.AppendReading(rd)
	}
	if eng.PushBatch(id, b) {
		return true
	}
	core.PutBatch(b)
	return false
}

func newReplaySource(t testing.TB, seed int64, word string, reg *obs.Registry) *replaySource {
	t.Helper()
	reports, err := replay.Synthesize(seed, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &replaySource{src: replay.NewSource(reports, replay.Options{Speed: 50, Obs: reg})}
}

// TestEngineMultiStreamRecognizes shards four independent streams over
// two workers and demands every stream calibrate and recognize its own
// word — per-stream state must not bleed across streams sharing a
// shard.
func TestEngineMultiStreamRecognizes(t *testing.T) {
	reg := obs.NewRegistry()
	words := map[engine.StreamID]string{
		"plate-0": "IT",
		"plate-1": "LC",
		"plate-2": "TI",
		"plate-3": "CL",
	}
	var mu sync.Mutex
	eventStreams := map[engine.StreamID]int{}
	eng := engine.New(engine.Config{
		Workers: 2,
		Obs:     reg,
		OnEvent: func(id engine.StreamID, ev core.Event) {
			mu.Lock()
			eventStreams[id]++
			mu.Unlock()
		},
	})

	var wg sync.WaitGroup
	seed := int64(20)
	for id, word := range words {
		src := newReplaySource(t, seed, word, reg)
		seed++
		wg.Add(1)
		go func(id engine.StreamID) {
			defer wg.Done()
			if err := eng.RunStream(id, src); err != nil {
				t.Errorf("stream %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	results := eng.Close()

	if len(results) != len(words) {
		t.Fatalf("got %d results, want %d", len(results), len(words))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].ID >= results[i].ID {
			t.Errorf("results unsorted: %q before %q", results[i-1].ID, results[i].ID)
		}
	}
	for _, res := range results {
		want := words[res.ID]
		if res.Err != nil {
			t.Errorf("stream %s: terminal error %v", res.ID, res.Err)
		}
		if !res.Calibrated {
			t.Errorf("stream %s never calibrated", res.ID)
		}
		if res.Letters != want {
			t.Errorf("stream %s recognized %q, want %q", res.ID, res.Letters, want)
		}
		if res.Readings == 0 {
			t.Errorf("stream %s ingested no readings", res.ID)
		}
		mu.Lock()
		evs := eventStreams[res.ID]
		mu.Unlock()
		if evs == 0 {
			t.Errorf("stream %s delivered no events through OnEvent", res.ID)
		}
	}

	// The engine_* series must reflect the run.
	snap := reg.Snapshot()
	assertMetric := func(name string, want float64) {
		t.Helper()
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	assertMetric("engine_streams", float64(len(words)))
	assertMetric("engine_overflow_total", 0)
	assertMetric("engine_stream_errors_total", 0)
	if snap.Value("engine_readings_total") == 0 {
		t.Error("engine_readings_total stayed zero")
	}
}

// TestEngineCalibrationFailureIsolated feeds one stream garbage that
// fails calibration and checks the failure stays confined: the sibling
// stream on the same single shard still recognizes, and the failed
// stream reports its terminal error with every reading it lost — the
// batch that failed calibration and the one after — accounted as
// dropped.
func TestEngineCalibrationFailureIsolated(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 1, Obs: reg})

	// All readings on one tag: every other tag is dead, which
	// Calibrate rejects.
	bad := make([]core.Reading, 0, 4000)
	for i := 0; i < 4000; i++ {
		bad = append(bad, core.Reading{TagIndex: 0, Time: time.Duration(i) * time.Millisecond, Phase: 1})
	}
	if !push(eng, "bad", bad) || !push(eng, "bad", []core.Reading{{TagIndex: 0, Time: 4001 * time.Millisecond}}) {
		t.Fatal("push refused by an empty mailbox")
	}

	src := newReplaySource(t, 30, "IT", reg)
	if err := eng.RunStream("good", src); err != nil {
		t.Fatalf("healthy stream: %v", err)
	}
	results := eng.Close()

	byID := map[engine.StreamID]engine.StreamResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	if res := byID["bad"]; res.Err == nil {
		t.Error("bad stream has no terminal error")
	} else if res.Readings+res.Dropped != 4001 {
		t.Errorf("bad stream accounts for %d ingested + %d dropped readings, want all 4001",
			res.Readings, res.Dropped)
	}
	if res := byID["good"]; res.Letters != "IT" {
		t.Errorf("healthy shard sibling recognized %q, want %q (err %v)", res.Letters, "IT", res.Err)
	}
	snap := reg.Snapshot()
	if got := snap.Value("engine_stream_errors_total"); got != 1 {
		t.Errorf("engine_stream_errors_total = %v, want 1", got)
	}
	if got, want := snap.Value("engine_dropped_readings_total"), float64(byID["bad"].Dropped); got != want {
		t.Errorf("engine_dropped_readings_total = %v, want the bad stream's %v", got, want)
	}
}

// TestEngineChaosStreamDoesNotStallSiblings is the engine-path chaos
// case: one stream arrives through a fault-injected TCP link that cuts
// the connection every 32 KiB, while two healthy in-process streams
// share the SAME single shard. The healthy streams must complete and
// recognize even though the chaotic stream spends the whole run
// disconnecting and resuming — a faulted source may starve itself, but
// never its shard siblings.
func TestEngineChaosStreamDoesNotStallSiblings(t *testing.T) {
	const word = "IT"
	reports, err := replay.Synthesize(12, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := llrp.NewServer(func() llrp.ReportSource {
		return replay.NewSource(reports, replay.Options{Speed: 25})
	})
	srv.IdleTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := faultnet.Listen(inner, faultnet.Config{
		Seed:           7,
		DropAfterBytes: 32 * 1024,
		DupFrameProb:   0.03,
		PartialWrites:  true,
		FrameHeaderLen: llrp.HeaderLen,
		FrameSize:      llrp.FrameSize,
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
		Addr:              inner.Addr().String(),
		BackoffInitial:    5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		JitterSeed:        11,
		KeepaliveInterval: 50 * time.Millisecond,
		IdleTimeout:       time.Second,
		WriteTimeout:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 1, Obs: reg})

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	healthyDone := make(chan struct{}, 2)
	run := func(id engine.StreamID, src interface {
		NextReports() ([]llrp.TagReport, error)
	}, healthy bool) {
		defer wg.Done()
		if err := eng.RunStream(id, src); err != nil {
			errs <- fmt.Errorf("stream %s: %w", id, err)
			return
		}
		if healthy {
			healthyDone <- struct{}{}
		}
	}
	wg.Add(3)
	go run("chaotic", sess, false)
	go run("healthy-a", newReplaySource(t, 31, "LC", reg), true)
	go run("healthy-b", newReplaySource(t, 32, "TI", reg), true)

	// Both healthy streams must finish on their own schedule; if the
	// chaotic stream could stall the shared shard, this would time out.
	for i := 0; i < 2; i++ {
		select {
		case <-healthyDone:
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(45 * time.Second):
			t.Fatal("healthy streams did not complete while chaotic sibling was active")
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := map[engine.StreamID]string{"chaotic": word, "healthy-a": "LC", "healthy-b": "TI"}
	for _, res := range eng.Close() {
		if res.Letters != want[res.ID] {
			t.Errorf("stream %s recognized %q, want %q", res.ID, res.Letters, want[res.ID])
		}
		if !res.Calibrated {
			t.Errorf("stream %s never calibrated", res.ID)
		}
	}
}
