package llrp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ReportSource supplies tag-report batches to stream to a client. Next
// blocks until a batch is available and returns ok=false when the
// source is exhausted (which ends the ROSpec).
type ReportSource interface {
	Next() (batch []TagReport, ok bool)
}

// SeekableSource is a ReportSource that can replay from an offset: a
// reconnecting client sends its last-seen report timestamp in the
// StartROSpec payload and the server seeks the fresh source there
// instead of replaying the whole capture. Implementations should
// resume slightly *before* resumeFrom (an overlap window) so ties on
// the timestamp never drop reports; the pipeline deduplicates the
// overlap.
type SeekableSource interface {
	ReportSource
	Seek(resumeFrom time.Duration)
}

// SourceFactory builds a fresh ReportSource per started ROSpec.
type SourceFactory func() ReportSource

// Server is the reader daemon: it accepts backend connections and
// streams tag reports while an ROSpec is active. One ROSpec per
// connection.
type Server struct {
	factory SourceFactory

	// IdleTimeout bounds how long a connection may stay silent
	// (nothing readable from the peer) before the server drops it. A
	// live client keeps the link warm with keepalive pings. Zero
	// disables the read deadline (legacy clients never ping).
	IdleTimeout time.Duration
	// WriteTimeout bounds each frame write so a half-dead peer that
	// stopped draining its receive window cannot block the handler
	// forever. Zero disables the write deadline.
	WriteTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer builds a server that draws reports from factory.
func NewServer(factory SourceFactory) *Server {
	return &Server{
		factory: factory,
		conns:   map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on l until Close is called. It always
// returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ActiveConns reports the number of live client connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, closes every live connection, and waits for
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one connection. A single goroutine owns the reader
// (feeding msgs) and this goroutine owns the writer, so there is no
// shared I/O state. The writer builds every frame in the connection's
// one buffer; the command reader allocates each message (ReadMessage),
// because the message crosses to this goroutine on a channel.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	// Every frame goes out under the write deadline: a peer that
	// stopped draining cannot wedge the handler.
	out := frameWriter{conn: conn, timeout: s.WriteTimeout}
	if err := out.send(MsgReaderEvent, []byte(EventReady)); err != nil {
		return
	}

	msgs := make(chan Message)
	readErr := make(chan error, 1)
	go func() {
		defer close(msgs)
		for {
			if s.IdleTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
			}
			msg, err := ReadMessage(r)
			if err != nil {
				readErr <- err
				return
			}
			msgs <- msg
		}
	}()

	var src ReportSource
	dispatch := func(msg Message) error {
		switch msg.Type {
		case MsgKeepalive:
			return out.send(MsgKeepalive, nil)
		case MsgStartROSpec:
			resume, ok := DecodeResume(msg.Payload)
			if !ok {
				return out.send(MsgError, []byte("malformed StartROSpec resume payload"))
			}
			if src == nil {
				src = s.factory()
			}
			if resume >= 0 {
				if seek, canSeek := src.(SeekableSource); canSeek {
					seek.Seek(resume)
					return out.send(MsgReaderEvent, []byte(fmt.Sprintf("resuming from %v", resume)))
				}
				// A non-seekable source replays from zero; tell the
				// client so it can expect the full stream again.
				return out.send(MsgReaderEvent, []byte("resume unsupported; replaying from start"))
			}
			return nil
		case MsgStopROSpec:
			if src == nil {
				return out.send(MsgReaderEvent, []byte(EventNoROSpec))
			}
			src = nil
			return out.send(MsgReaderEvent, []byte(EventStopped))
		default:
			return out.send(MsgError, []byte(fmt.Sprintf("unexpected %v", msg.Type)))
		}
	}

	for {
		if src == nil {
			// Idle: block on commands.
			select {
			case msg, ok := <-msgs:
				if !ok {
					return
				}
				if err := dispatch(msg); err != nil {
					return
				}
			case <-readErr:
				return
			}
			continue
		}
		// Streaming: drain any pending command, then push a batch.
		select {
		case msg, ok := <-msgs:
			if !ok {
				return
			}
			if err := dispatch(msg); err != nil {
				return
			}
			continue
		case <-readErr:
			return
		default:
		}
		batch, ok := src.Next()
		if !ok {
			src = nil
			if err := out.send(MsgReaderEvent, []byte(EventComplete)); err != nil {
				return
			}
			continue
		}
		if err := out.sendReports(batch); err != nil {
			return
		}
	}
}

// Client is one connection's backend end: the frame reader, the frame
// writer and the decode scratch a Session reads and writes through. It
// reads every frame into one buffer per connection and decodes every
// report batch into one reused scratch.
type Client struct {
	in      frameReader
	out     frameWriter
	scratch []TagReport
}

// NewClient wraps an established connection. It does not consume the
// reader's ready event; the caller reads it first.
func NewClient(conn net.Conn) *Client {
	return &Client{
		in:  frameReader{rd: conn, buf: make([]byte, frameBufSize)},
		out: frameWriter{conn: conn}}
}

// StartFrom begins the reader operation, asking the reader to replay
// from (shortly before) lastSeen when it is >= 0 and the reader's
// source is seekable. Pass NoResume for a fresh stream.
func (c *Client) StartFrom(lastSeen time.Duration) error {
	return c.out.send(MsgStartROSpec, EncodeResume(lastSeen))
}

// Keepalive sends a liveness probe; the reader echoes it.
func (c *Client) Keepalive() error {
	return c.out.send(MsgKeepalive, nil)
}

// Stop asks the reader to end the operation.
func (c *Client) Stop() error {
	return c.out.send(MsgStopROSpec, nil)
}

// ErrStreamEnded reports a clean end of the report stream.
var ErrStreamEnded = errors.New("llrp: stream ended")

// decode decodes a report payload into the client's reused scratch,
// overwriting the batch it last returned.
func (c *Client) decode(payload []byte) ([]TagReport, error) {
	reports, err := DecodeReportsInto(c.scratch, payload)
	if err != nil {
		return nil, err
	}
	c.scratch = reports
	return reports, nil
}
