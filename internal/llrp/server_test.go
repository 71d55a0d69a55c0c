package llrp

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rfipad/internal/obs"
	"rfipad/internal/tagmodel"
)

// sliceSource replays fixed batches.
type sliceSource struct {
	mu      sync.Mutex
	batches [][]TagReport
}

func (s *sliceSource) Next() ([]TagReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return nil, false
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, true
}

// blockSource streams forever until closed.
type blockSource struct {
	stop chan struct{}
}

func (s *blockSource) Next() ([]TagReport, bool) {
	select {
	case <-s.stop:
		return nil, false
	case <-time.After(time.Millisecond):
		return []TagReport{{EPC: tagmodel.MakeEPC(1)}}, true
	}
}

func startServer(t *testing.T, factory SourceFactory) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(factory)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// dialSession opens a session to addr that gives up at its first
// failed connect, so a dead server surfaces as an error.
func dialSession(t *testing.T, addr string) (*Session, error) {
	t.Helper()
	return DialSession(context.Background(), SessionConfig{
		Addr:        addr,
		MaxAttempts: 1,
		Obs:         obs.NewRegistry(),
	})
}

// dialRaw connects a bare client to addr and consumes the reader's
// ready event, for tests that exchange single frames.
func dialRaw(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := NewClient(conn)
	if msg, err := c.in.next(); err != nil || msg.Type != MsgReaderEvent {
		t.Fatalf("handshake: %v %v", msg.Type, err)
	}
	return c
}

func TestClientStreamsAllBatches(t *testing.T) {
	batches := [][]TagReport{
		{{EPC: tagmodel.MakeEPC(1), PhaseRad: 1, RSSdBm: -40, Timestamp: time.Millisecond}},
		{{EPC: tagmodel.MakeEPC(2), PhaseRad: 2, RSSdBm: -45, Timestamp: 2 * time.Millisecond},
			{EPC: tagmodel.MakeEPC(3), PhaseRad: 3, RSSdBm: -50, Timestamp: 3 * time.Millisecond}},
	}
	_, addr := startServer(t, func() ReportSource {
		return &sliceSource{batches: append([][]TagReport(nil), batches...)}
	})

	sess, err := dialSession(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var got []TagReport
	for {
		batch, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if len(got) != 3 {
		t.Fatalf("reports = %d, want 3", len(got))
	}
	if got[0].EPC != tagmodel.MakeEPC(1) || got[2].EPC != tagmodel.MakeEPC(3) {
		t.Error("report order/content wrong")
	}
}

func TestClientStopEndsStream(t *testing.T) {
	src := &blockSource{stop: make(chan struct{})}
	t.Cleanup(func() { close(src.stop) })
	_, addr := startServer(t, func() ReportSource { return src })

	sess, err := dialSession(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Take a few batches, then stop.
	for i := 0; i < 3; i++ {
		if _, err := sess.NextReports(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
	// Eventually the stream ends (pending batches may still arrive).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("stream did not end after Stop")
		default:
		}
		_, err := sess.NextReports()
		if errors.Is(err, ErrStreamEnded) {
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestServerKeepalive(t *testing.T) {
	_, addr := startServer(t, func() ReportSource { return &sliceSource{} })
	c := dialRaw(t, addr)
	if err := c.Keepalive(); err != nil {
		t.Fatal(err)
	}
	msg, err := c.in.next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgKeepalive {
		t.Errorf("reply = %v, want keepalive", msg.Type)
	}
}

func TestServerRejectsUnknownMessage(t *testing.T) {
	_, addr := startServer(t, func() ReportSource { return &sliceSource{} })
	c := dialRaw(t, addr)
	if err := c.out.send(MsgType(42), nil); err != nil {
		t.Fatal(err)
	}
	msg, err := c.in.next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgError {
		t.Errorf("reply = %v, want error", msg.Type)
	}
}

// TestServerConcurrentClientChurn hammers the server with sessions that
// connect, stream, and tear down — half of them abruptly, without a
// Stop — while others are mid-stream. Run under -race this exercises
// the conns-map and waitgroup bookkeeping.
func TestServerConcurrentClientChurn(t *testing.T) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	srv, addr := startServer(t, func() ReportSource { return &blockSource{stop: stop} })

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sess, err := dialSession(t, addr)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				for k := 0; k <= i%3; k++ {
					if _, err := sess.NextReports(); err != nil {
						t.Errorf("next: %v", err)
						break
					}
				}
				if i%2 == 0 {
					sess.Stop() // polite teardown; odd iterations just vanish
				}
				sess.Close()
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("close after churn: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	src := &blockSource{stop: make(chan struct{})}
	t.Cleanup(func() { close(src.stop) })
	srv, addr := startServer(t, func() ReportSource { return src })

	sess, err := dialSession(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.NextReports(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := sess.NextReports(); err != nil {
				done <- err
				return
			}
		}
	}()
	if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-done:
		// Any error is fine: the link was torn down and the one
		// reconnect attempt found no server.
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after server close")
	}
}
