package llrp

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/obs"
	"rfipad/internal/tagmodel"
)

// seekHarness shares a capture and a seek log across the per-connection
// sources a reconnecting session triggers.
type seekHarness struct {
	mu      sync.Mutex
	reports []TagReport
	seeks   []time.Duration
}

func (h *seekHarness) newSource() ReportSource { return &seekSource{h: h} }

func (h *seekHarness) recordedSeeks() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Duration(nil), h.seeks...)
}

// seekSource serves one report per batch and supports resume.
type seekSource struct {
	h   *seekHarness
	pos int
}

func (s *seekSource) Next() ([]TagReport, bool) {
	if s.pos >= len(s.h.reports) {
		return nil, false
	}
	b := []TagReport{s.h.reports[s.pos]}
	s.pos++
	return b, true
}

func (s *seekSource) Seek(from time.Duration) {
	s.h.mu.Lock()
	s.h.seeks = append(s.h.seeks, from)
	s.h.mu.Unlock()
	s.pos = 0
	for s.pos < len(s.h.reports) && s.h.reports[s.pos].Timestamp <= from {
		s.pos++
	}
}

// limitConn delivers exactly n bytes to the reader, then fails the
// connection — a deterministic mid-stream link cut.
type limitConn struct {
	net.Conn
	remaining int
}

func (c *limitConn) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, errors.New("limitConn: byte budget exhausted")
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining -= n
	return n, err
}

func TestSessionReconnectsAndResumes(t *testing.T) {
	const n = 20
	h := &seekHarness{}
	for i := 0; i < n; i++ {
		h.reports = append(h.reports, TagReport{
			EPC:       tagmodel.MakeEPC(i + 1),
			Timestamp: time.Duration(i+1) * 10 * time.Millisecond,
		})
	}
	_, addr := startServer(t, h.newSource)

	// The first connection dies after the handshake (20 bytes) plus
	// exactly five single-report frames (38 bytes each); later
	// connections are clean.
	var dials atomic.Int32
	var evMu sync.Mutex
	var events []SessionEvent
	sess, err := DialSession(context.Background(), SessionConfig{
		Dialer: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return &limitConn{Conn: conn, remaining: 20 + 5*38}, nil
			}
			return conn, nil
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        10 * time.Millisecond,
		JitterSeed:        7,
		KeepaliveInterval: -1, // keep the byte budget exact
		IdleTimeout:       2 * time.Second,
		OnEvent: func(ev SessionEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	seen := map[time.Duration]int{}
	for {
		batch, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			seen[r.Timestamp]++
		}
	}
	if len(seen) != n {
		t.Errorf("unique reports = %d, want %d (mid-stream cut lost data)", len(seen), n)
	}
	if got := sess.Stats().Reconnects; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	seeks := h.recordedSeeks()
	if len(seeks) != 1 || seeks[0] != 50*time.Millisecond {
		t.Errorf("seeks = %v, want exactly [50ms] (last-seen before the cut)", seeks)
	}

	evMu.Lock()
	defer evMu.Unlock()
	var connects, disconnects int
	var lastResume time.Duration = NoResume
	for _, ev := range events {
		switch ev.Kind {
		case SessionConnected:
			connects++
			lastResume = ev.ResumeFrom
		case SessionDisconnected:
			disconnects++
		}
	}
	if connects != 2 || disconnects != 1 {
		t.Errorf("events: %d connects, %d disconnects, want 2 and 1", connects, disconnects)
	}
	if lastResume != 50*time.Millisecond {
		t.Errorf("reconnect ResumeFrom = %v, want 50ms", lastResume)
	}
}

// TestSessionRetriesCountScheduledDelays pins llrp_session_retries_total
// to what it documents: failed connect attempts that scheduled a
// backoff sleep. A session always refused with MaxAttempts 4 sleeps
// after each of its first three attempts and gives up on the fourth, so
// the counter reads 3, one per SessionRetrying event.
func TestSessionRetriesCountScheduledDelays(t *testing.T) {
	reg := obs.NewRegistry()
	retrying := 0
	_, err := DialSession(context.Background(), SessionConfig{
		Dialer: func(context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
		MaxAttempts:       4,
		KeepaliveInterval: -1,
		Obs:               reg,
		OnEvent: func(ev SessionEvent) {
			if ev.Kind == SessionRetrying {
				retrying++
			}
		},
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("dial err = %v, want ErrGiveUp", err)
	}
	if retrying != 3 {
		t.Errorf("%d SessionRetrying events, want 3", retrying)
	}
	if v := reg.Snapshot().Value("llrp_session_retries_total"); v != 3 {
		t.Errorf("llrp_session_retries_total = %v, want 3", v)
	}
}

// backoffCooldown is collectBackoff's breaker cool-down.
const backoffCooldown = 4 * time.Millisecond

// collectBackoff dials a source that always refuses until MaxAttempts
// (5) gives up and returns every SessionRetrying wait. A positive
// breakerThreshold arms the breaker with a backoffCooldown cool-down.
func collectBackoff(t *testing.T, seed int64, breakerThreshold int) []time.Duration {
	t.Helper()
	var waits []time.Duration
	_, err := DialSession(context.Background(), SessionConfig{
		Dialer: func(context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		BackoffInitial:    time.Millisecond,
		BackoffMax:        8 * time.Millisecond,
		JitterSeed:        seed,
		MaxAttempts:       5,
		KeepaliveInterval: -1,
		BreakerThreshold:  breakerThreshold,
		BreakerCooldown:   backoffCooldown,
		Obs:               obs.NewRegistry(),
		OnEvent: func(ev SessionEvent) {
			if ev.Kind == SessionRetrying {
				waits = append(waits, ev.Wait)
			}
		},
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("dial err = %v, want ErrGiveUp", err)
	}
	return waits
}

func TestSessionBackoffDeterministicAndCapped(t *testing.T) {
	w1 := collectBackoff(t, 99, 0)
	w2 := collectBackoff(t, 99, 0)
	if len(w1) != 4 {
		t.Fatalf("retry events = %d, want 4 (MaxAttempts-1)", len(w1))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Errorf("attempt %d: %v vs %v — same seed must reproduce the schedule", i+1, w1[i], w2[i])
		}
		// Nominal delay doubles from 1 ms and caps at 8 ms; jitter keeps
		// the actual wait in [½·d, d].
		d := time.Millisecond << i
		if d > 8*time.Millisecond {
			d = 8 * time.Millisecond
		}
		if w1[i] < d/2 || w1[i] > d {
			t.Errorf("attempt %d wait %v outside [%v, %v]", i+1, w1[i], d/2, d)
		}
	}

	// Armed at threshold 2, the breaker is the schedule's last step:
	// the second failure opens it, every later delay is a cool-down
	// (each failed half-open probe re-opens the breaker), and the same
	// seed reproduces the whole schedule from the session's one RNG.
	a1 := collectBackoff(t, 99, 2)
	a2 := collectBackoff(t, 99, 2)
	if len(a1) != 4 {
		t.Fatalf("armed retry events = %d, want 4 (MaxAttempts-1)", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("armed attempt %d: %v vs %v — same seed must reproduce the schedule", i+1, a1[i], a2[i])
		}
		lo, hi := time.Millisecond/2, time.Millisecond
		if i > 0 {
			lo, hi = backoffCooldown, backoffCooldown*3/2
		}
		if a1[i] < lo || a1[i] > hi {
			t.Errorf("armed attempt %d wait %v outside [%v, %v]", i+1, a1[i], lo, hi)
		}
	}
}

func TestSessionKeepaliveDetectsDeadLink(t *testing.T) {
	// A reader that handshakes, swallows every frame, and never sends
	// another byte: only deadlines can unmask it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var keepalives atomic.Int32
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := WriteMessage(conn, Message{Type: MsgReaderEvent, Payload: []byte(EventReady)}); err != nil {
					return
				}
				r := bufio.NewReader(conn)
				for {
					msg, err := ReadMessage(r)
					if err != nil {
						return
					}
					if msg.Type == MsgKeepalive {
						keepalives.Add(1)
					}
				}
			}(conn)
		}
	}()

	disconnected := make(chan SessionEvent, 16)
	sess, err := DialSession(context.Background(), SessionConfig{
		Addr:              l.Addr().String(),
		KeepaliveInterval: 20 * time.Millisecond,
		IdleTimeout:       100 * time.Millisecond,
		WriteTimeout:      time.Second,
		BackoffInitial:    time.Millisecond,
		BackoffMax:        5 * time.Millisecond,
		JitterSeed:        3,
		OnEvent: func(ev SessionEvent) {
			if ev.Kind == SessionDisconnected {
				select {
				case disconnected <- ev:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	go sess.NextReports() // blocks until the idle deadline trips

	select {
	case ev := <-disconnected:
		var nerr net.Error
		if !errors.As(ev.Err, &nerr) || !nerr.Timeout() {
			t.Errorf("disconnect cause = %v, want a timeout", ev.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead link never detected")
	}
	if keepalives.Load() == 0 {
		t.Error("no keepalive pings reached the reader")
	}
}

func TestSessionCleanEndAndStop(t *testing.T) {
	batches := [][]TagReport{
		{{EPC: tagmodel.MakeEPC(1), Timestamp: time.Millisecond}},
	}
	_, addr := startServer(t, func() ReportSource {
		return &sliceSource{batches: append([][]TagReport(nil), batches...)}
	})
	sess, err := DialSession(context.Background(), SessionConfig{
		Addr:              addr,
		KeepaliveInterval: -1,
		IdleTimeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var got int
	for {
		batch, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got += len(batch)
	}
	if got != 1 {
		t.Errorf("reports = %d, want 1", got)
	}
	if st := sess.Stats(); st.Reconnects != 0 {
		t.Errorf("clean end recorded %d reconnects, want 0", st.Reconnects)
	}

	// Stop mid-stream must surface as a clean end too, not a reconnect.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	_, addr2 := startServer(t, func() ReportSource { return &blockSource{stop: stop} })
	sess2, err := DialSession(context.Background(), SessionConfig{
		Addr:              addr2,
		KeepaliveInterval: -1,
		IdleTimeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if _, err := sess2.NextReports(); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Stop(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("stream did not end after Stop")
		default:
		}
		_, err := sess2.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error after Stop: %v", err)
		}
	}
	if st := sess2.Stats(); st.Reconnects != 0 {
		t.Errorf("Stop recorded %d reconnects, want 0", st.Reconnects)
	}
}

// TestSessionReceivesOversizedBatch streams one batch whose payload
// would exceed MaxPayload. The encoder refuses it whole, so the reader
// daemon splits it across frames, and the session receives every
// report in order over its one connection, then the clean end. A
// daemon that dropped the connection instead would put the session in
// a reconnect loop that never counts toward MaxAttempts.
func TestSessionReceivesOversizedBatch(t *testing.T) {
	const n = 40000
	batch := make([]TagReport, n)
	for i := range batch {
		batch[i] = TagReport{EPC: tagmodel.MakeEPC(i%25 + 1), Timestamp: time.Duration(i) * time.Microsecond}
	}
	if _, err := EncodeReports(batch); !errors.Is(err, ErrOversized) {
		t.Fatalf("encoding %d reports in one payload: %v, want ErrOversized", n, err)
	}
	if _, err := EncodeReports(batch[:maxFrameReports]); err != nil {
		t.Fatalf("encoding %d reports, the most one payload carries: %v", maxFrameReports, err)
	}
	_, addr := startServer(t, func() ReportSource { return &sliceSource{batches: [][]TagReport{batch}} })
	var dials atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := DialSession(ctx, SessionConfig{
		Dialer: func(ctx context.Context) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		MaxAttempts:       3,
		KeepaliveInterval: -1,
		Obs:               obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := 0
	for {
		b, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatalf("after %d reports: %v", got, err)
		}
		for _, r := range b {
			if r.Timestamp != batch[got].Timestamp || r.EPC != batch[got].EPC {
				t.Fatalf("report %d is %v of tag %v, want %v", got, r.Timestamp, r.EPC, batch[got].Timestamp)
			}
			got++
		}
	}
	if got != n {
		t.Errorf("received %d reports, want %d", got, n)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("%d connects, want 1", d)
	}
}

// TestSessionLinkDroppedBeforeABatchIsAFailedAttempt pins that a link
// that drops before it delivers a batch counts as a failed connect
// attempt. Against a reader that handshakes, reads the start and hangs
// up, a session with MaxAttempts 3 backs off twice and then returns
// ErrGiveUp, where it used to reconnect at once, forever. A reader that
// ends the stream cleanly before any batch still ends it with
// ErrStreamEnded and no retry.
func TestSessionLinkDroppedBeforeABatchIsAFailedAttempt(t *testing.T) {
	for _, tc := range []struct {
		name       string
		afterStart []byte // the reader's last frame's payload; nil hangs up
		wantErr    error
		accepts    int32
		retrying   int
	}{
		{"hang up", nil, ErrGiveUp, 3, 2},
		{"clean end", []byte(EventComplete), ErrStreamEnded, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			var accepts atomic.Int32
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					accepts.Add(1)
					go func(conn net.Conn) {
						defer conn.Close()
						if err := WriteMessage(conn, Message{Type: MsgReaderEvent, Payload: []byte(EventReady)}); err != nil {
							return
						}
						if _, err := ReadMessage(bufio.NewReader(conn)); err != nil { // the start
							return
						}
						if tc.afterStart != nil {
							WriteMessage(conn, Message{Type: MsgReaderEvent, Payload: tc.afterStart})
						}
					}(conn)
				}
			}()

			reg := obs.NewRegistry()
			retrying := 0
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			sess, err := DialSession(ctx, SessionConfig{
				Addr:              l.Addr().String(),
				BackoffInitial:    20 * time.Millisecond,
				BackoffMax:        40 * time.Millisecond,
				MaxAttempts:       3,
				KeepaliveInterval: -1,
				Obs:               reg,
				OnEvent: func(ev SessionEvent) {
					if ev.Kind == SessionRetrying {
						retrying++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.NextReports(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("NextReports err = %v, want %v", err, tc.wantErr)
			}
			if retrying != tc.retrying {
				t.Errorf("%d backoffs, want %d", retrying, tc.retrying)
			}
			if v := reg.Snapshot().Value("llrp_session_retries_total"); v != float64(tc.retrying) {
				t.Errorf("llrp_session_retries_total = %v, want %d", v, tc.retrying)
			}
			if n := accepts.Load(); n != tc.accepts {
				t.Errorf("the reader accepted %d connections, want %d", n, tc.accepts)
			}
		})
	}
}
