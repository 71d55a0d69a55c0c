package engine_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// liveStream is the ID rfipad-live gives its first reader session; its
// checkpoint file is keyed by it.
const liveStream engine.StreamID = "stream-00"

// runOne drains src through a one-worker engine as liveStream, the
// way rfipad-live runs its reader session, and returns the stream's
// result after Close. The error is RunStream's, else the stream's
// terminal error.
func runOne(cfg engine.Config, src live.ReportSource) (engine.StreamResult, error) {
	cfg.Workers = 1
	eng := engine.New(cfg)
	err := eng.RunStream(liveStream, src)
	res := eng.Close()[0] // RunStream's final flush always creates the stream
	if err == nil {
		err = res.Err
	}
	return res, err
}

// TestEndToEndChaosRecognizesWord drives the full stack — synthesized
// capture → llrp server → fault-injected link (forced mid-word
// disconnects, duplicated and fragmented frames) → reconnecting session
// → engine stream — and demands the word still comes out. The byte
// budget cuts every connection long before the capture ends, so
// recognition only succeeds if resume and duplicate tolerance actually
// work.
func TestEndToEndChaosRecognizesWord(t *testing.T) {
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
		DropAfterBytes: 32 * 1024, // every connection dies mid-word
		DupFrameProb:   0.03,
		PartialWrites:  true,
		FrameHeaderLen: llrp.HeaderLen,
		FrameSize:      llrp.FrameSize,
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var disconnects atomic.Int32
	sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
		Addr:              inner.Addr().String(),
		BackoffInitial:    5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		JitterSeed:        11,
		KeepaliveInterval: 50 * time.Millisecond,
		IdleTimeout:       time.Second,
		WriteTimeout:      time.Second,
		OnEvent: func(ev llrp.SessionEvent) {
			if ev.Kind == llrp.SessionDisconnected {
				disconnects.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	res, err := runOne(engine.Config{
		Stream: live.Config{CalibDuration: 3 * time.Second},
		Obs:    obs.NewRegistry(),
	}, sess)
	reconnects := sess.Stats().Reconnects
	if err != nil {
		t.Fatalf("stream run: %v (partial result %q after %d reconnects)", err, res.Letters, reconnects)
	}
	if !res.Calibrated {
		t.Error("never calibrated")
	}
	if res.Letters != word {
		t.Errorf("recognized %q, want %q", res.Letters, word)
	}
	if disconnects.Load() == 0 {
		t.Error("fault injection produced no disconnects — chaos never engaged")
	}
	if reconnects == 0 {
		t.Error("session reports no reconnects despite injected link cuts")
	}
	t.Logf("survived %d disconnects / %d reconnects, %d strokes",
		disconnects.Load(), reconnects, res.Strokes)
}

// TestLiveRunSurfacesPartialResult asserts a stream whose source gives
// up mid-stream still reports its result, alongside the source's
// terminal error.
func TestLiveRunSurfacesPartialResult(t *testing.T) {
	res, err := runOne(engine.Config{Obs: obs.NewRegistry()}, failingSource{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the source's terminal error", err)
	}
	if res.Calibrated {
		t.Error("calibrated flag set with no data")
	}
}

type failingSource struct{}

func (failingSource) NextReports() ([]llrp.TagReport, error) {
	return nil, context.DeadlineExceeded
}
