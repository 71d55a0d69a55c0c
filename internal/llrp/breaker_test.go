package llrp

import (
	"context"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/tagmodel"
)

// flightDir picks where this test's flight recorder writes: a unique
// subdirectory of RFIPAD_FLIGHT_DIR when CI sets it (the workflow
// uploads that tree as an artifact on failure), a test temp dir
// otherwise.
func flightDir(t *testing.T) string {
	base := os.Getenv("RFIPAD_FLIGHT_DIR")
	if base == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(base, t.Name()+"-*")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSessionBreakerGatesReconnects arms the reconnect circuit breaker
// against a source whose first dials all fail: the breaker must trip
// at the threshold, hold callers back through the cool-down (counted
// on llrp_session_breaker_blocked_total), admit half-open probes, and
// close again once a probe lands — with the state trajectory visible
// on the llrp_session_breaker_state gauge.
func TestSessionBreakerGatesReconnects(t *testing.T) {
	h := &seekHarness{}
	for i := 0; i < 5; i++ {
		h.reports = append(h.reports, TagReport{
			EPC:       tagmodel.MakeEPC(i + 1),
			Timestamp: time.Duration(i+1) * 10 * time.Millisecond,
		})
	}
	_, addr := startServer(t, h.newSource)

	reg := obs.NewRegistry()
	fl, err := trace.OpenFlight(flightDir(t), reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var states []float64
	var dials atomic.Int32
	const failingDials = 4
	sess, err := DialSession(context.Background(), SessionConfig{
		Dialer: func(ctx context.Context) (net.Conn, error) {
			if dials.Add(1) <= failingDials {
				// Record the breaker position at each attempt: attempts
				// past the threshold must be half-open probes, not
				// closed-state hammering.
				states = append(states, reg.Snapshot().Value("llrp_session_breaker_state"))
				return nil, errors.New("connection refused")
			}
			states = append(states, reg.Snapshot().Value("llrp_session_breaker_state"))
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
		JitterSeed:        9,
		KeepaliveInterval: -1,
		BreakerThreshold:  2,
		BreakerWindow:     10 * time.Second,
		BreakerCooldown:   20 * time.Millisecond,
		Obs:               reg,
		Flight:            fl,
		FlightStream:      "reader-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Dials 1-2 ran with the breaker closed (0); dials 3+ are admitted
	// as half-open probes (2).
	if len(states) != failingDials+1 {
		t.Fatalf("dial count %d, want %d", len(states), failingDials+1)
	}
	for i, st := range states {
		want := float64(0)
		if i >= 2 {
			want = 2
		}
		if st != want {
			t.Errorf("dial %d saw breaker state %v, want %v (trajectory %v)", i+1, st, want, states)
		}
	}

	snap := reg.Snapshot()
	if v := snap.Value("llrp_session_breaker_state"); v != 0 {
		t.Errorf("breaker state after successful connect = %v, want 0 (closed)", v)
	}
	if v := snap.Value("llrp_session_breaker_blocked_total"); v < 3 {
		t.Errorf("llrp_session_breaker_blocked_total = %v, want >= 3 (one cool-down per open period)", v)
	}

	// The session works normally once through: the full capture streams.
	seen := 0
	for {
		batch, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen += len(batch)
	}
	if seen != len(h.reports) {
		t.Errorf("streamed %d reports, want %d", seen, len(h.reports))
	}

	// Each breaker-open is an anomaly the flight recorder must capture:
	// the JSONL holds one breaker_open dump per trip, attributed to the
	// configured stream, and the counter agrees with the file.
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	dumps, err := trace.ReadDumps(fl.Path())
	if err != nil {
		t.Fatal(err)
	}
	opens := 0
	for _, d := range dumps {
		if d.Trigger != trace.TriggerBreakerOpen {
			t.Errorf("unexpected dump trigger %q", d.Trigger)
			continue
		}
		opens++
		if d.Stream != "reader-0" {
			t.Errorf("breaker dump stream = %q, want reader-0", d.Stream)
		}
		if d.Detail == "" {
			t.Error("breaker dump has no detail")
		}
	}
	if opens == 0 {
		t.Fatal("no breaker_open flight dumps recorded")
	}
	if v := snap.Value("obs_flight_dumps_total", obs.L("trigger", trace.TriggerBreakerOpen)); v != float64(opens) {
		t.Errorf("obs_flight_dumps_total{breaker_open} = %v, file has %d", v, opens)
	}
}

// TestSessionBreakerDisabledByDefault pins that a zero threshold keeps
// the old behavior: no breaker gauge movement, plain backoff only.
func TestSessionBreakerDisabledByDefault(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := DialSession(context.Background(), SessionConfig{
		Dialer: func(context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
		MaxAttempts:       4,
		KeepaliveInterval: -1,
		Obs:               reg,
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("dial err = %v, want ErrGiveUp", err)
	}
	if v := reg.Snapshot().Value("llrp_session_breaker_blocked_total"); v != 0 {
		t.Errorf("disabled breaker blocked %v attempts", v)
	}
}

// TestSessionBreakerWindowRestartsStreak pins the breaker's window: a
// failure streak whose first failure is older than BreakerWindow
// restarts, so failures spaced wider than the window never open a
// threshold-2 breaker, however many there are before ErrGiveUp.
func TestSessionBreakerWindowRestartsStreak(t *testing.T) {
	reg := obs.NewRegistry()
	fl, err := trace.OpenFlight(flightDir(t), reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DialSession(context.Background(), SessionConfig{
		Dialer: func(context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		// The smallest backoff delay is 2 ms, twice the window.
		BackoffInitial:    4 * time.Millisecond,
		BackoffMax:        8 * time.Millisecond,
		MaxAttempts:       6,
		KeepaliveInterval: -1,
		BreakerThreshold:  2,
		BreakerWindow:     time.Millisecond,
		BreakerCooldown:   time.Millisecond,
		Obs:               reg,
		Flight:            fl,
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("dial err = %v, want ErrGiveUp", err)
	}
	snap := reg.Snapshot()
	if v := snap.Value("llrp_session_breaker_state"); v != 0 {
		t.Errorf("llrp_session_breaker_state = %v, want 0 (closed)", v)
	}
	if v := snap.Value("llrp_session_breaker_blocked_total"); v != 0 {
		t.Errorf("llrp_session_breaker_blocked_total = %v, want 0", v)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	dumps, err := trace.ReadDumps(fl.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 0 {
		t.Errorf("recorded %d flight dumps (%+v), want none", len(dumps), dumps)
	}
}

// TestSessionBreakerSuccessResetsStreak pins that a link that delivers
// a batch ends the failure streak: with a threshold-2 breaker, one
// failed dial before the first connect and one after a mid-stream cut
// never add up to a trip.
func TestSessionBreakerSuccessResetsStreak(t *testing.T) {
	h := &seekHarness{}
	for i := 0; i < 5; i++ {
		h.reports = append(h.reports, TagReport{
			EPC:       tagmodel.MakeEPC(i + 1),
			Timestamp: time.Duration(i+1) * 10 * time.Millisecond,
		})
	}
	_, addr := startServer(t, h.newSource)

	reg := obs.NewRegistry()
	var dials atomic.Int32
	sess, err := DialSession(context.Background(), SessionConfig{
		// Dials 1 and 3 fail; dial 2's link dies after the handshake
		// (20 bytes) and two single-report frames (38 bytes each).
		Dialer: func(ctx context.Context) (net.Conn, error) {
			n := dials.Add(1)
			if n == 1 || n == 3 {
				return nil, errors.New("connection refused")
			}
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil || n != 2 {
				return conn, err
			}
			return &limitConn{Conn: conn, remaining: 20 + 2*38}, nil
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
		KeepaliveInterval: -1, // keep the byte budget exact
		BreakerThreshold:  2,
		BreakerWindow:     10 * time.Second,
		BreakerCooldown:   20 * time.Millisecond,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for {
		_, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 4 {
		t.Errorf("dials = %d, want 4", n)
	}
	if v := reg.Snapshot().Value("llrp_session_breaker_blocked_total"); v != 0 {
		t.Errorf("llrp_session_breaker_blocked_total = %v, want 0: the breaker opened across a successful connect", v)
	}
}
