package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// TestRunModesRecognizeEveryStream runs rfipad-live's two modes, the
// engine and a 2-node cluster, over an in-process reader daemon that
// serves its successive connections two distinct captures of "IT", as
// rfipad-readerd -streams 2 does. Each mode must exit 0, calibrate both
// streams and count all 4 letters.
func TestRunModesRecognizeEveryStream(t *testing.T) {
	const streams = 2
	var captures [streams][]llrp.TagReport
	for i := range captures {
		reports, err := replay.Synthesize(int64(300+i), "IT", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		captures[i] = reports
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))

	modes := []struct {
		name string
		run  func(reg *obs.Registry, dial func() (*llrp.Session, error), addr string) int
	}{
		{"engine", func(reg *obs.Registry, dial func() (*llrp.Session, error), addr string) int {
			return runEngineMode(log, dial, addr, streams, 1, engine.Config{Obs: reg})
		}},
		{"cluster", func(reg *obs.Registry, dial func() (*llrp.Session, error), addr string) int {
			return runClusterMode(log, dial, addr, streams, 2, cluster.Config{Obs: reg, Logger: log})
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var conns atomic.Int64
			srv := llrp.NewServer(func() llrp.ReportSource {
				i := (conns.Add(1) - 1) % streams
				return replay.NewSource(captures[i], replay.Options{Speed: 40, Obs: reg})
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			dial := func() (*llrp.Session, error) {
				return llrp.DialSession(context.Background(), llrp.SessionConfig{
					Addr: l.Addr().String(), MaxAttempts: 3, Obs: reg})
			}

			if code := mode.run(reg, dial, l.Addr().String()); code != 0 {
				t.Fatalf("exit code %d, want 0", code)
			}
			snap := reg.Snapshot()
			if got := snap.Value("engine_streams_calibrated"); got != streams {
				t.Errorf("engine_streams_calibrated = %v, want %d", got, streams)
			}
			if got := snap.Value("engine_events_total", obs.L("kind", "letter")); got != 2*streams {
				t.Errorf(`engine_events_total{kind="letter"} = %v, want %d`, got, 2*streams)
			}
		})
	}
}
