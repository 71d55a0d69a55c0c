package llrp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
)

// SessionConfig tunes a fault-tolerant reader session.
type SessionConfig struct {
	// Addr is the reader daemon's TCP address. Ignored when Dialer is
	// set.
	Addr string
	// Dialer overrides how the underlying connection is made (tests
	// and chaos harnesses inject fault wrappers here).
	Dialer func(ctx context.Context) (net.Conn, error)

	// BackoffInitial is the first reconnect delay (default 100 ms).
	BackoffInitial time.Duration
	// BackoffMax caps the exponential growth (default 5 s).
	BackoffMax time.Duration
	// JitterSeed seeds the deterministic backoff and breaker cool-down
	// jitter; equal seeds reproduce the exact reconnect schedule.
	JitterSeed int64
	// MaxAttempts bounds *consecutive* failed connect attempts before
	// the session gives up (0 = retry forever). A link that drops
	// before it delivers its first batch counts as a failed attempt.
	// The counter resets on every successfully delivered batch.
	MaxAttempts int

	// BreakerThreshold, when positive, arms a reconnect circuit
	// breaker as the retry schedule's last step: after this many
	// consecutive failed connects within BreakerWindow the breaker
	// opens and the next delay is one jittered BreakerCooldown instead
	// of a per-attempt backoff; the attempt after it is a half-open
	// probe, whose failure re-opens the breaker and whose success
	// closes it. Breaker state is exported as the
	// llrp_session_breaker_state gauge (0 closed, 1 open, 2
	// half-open). Zero disables the breaker.
	BreakerThreshold int
	// BreakerWindow bounds the failure streak (default 30 s).
	BreakerWindow time.Duration
	// BreakerCooldown is the base open duration before a probe
	// (default 5 s; jittered up to 1.5× with JitterSeed).
	BreakerCooldown time.Duration

	// KeepaliveInterval is how often the session pings the reader so
	// both ends can enforce deadlines (default 2 s, 0 keeps the
	// default; negative disables pings).
	KeepaliveInterval time.Duration
	// IdleTimeout is the read deadline: if nothing arrives for this
	// long — not even a keepalive echo — the link is declared dead and
	// the session reconnects (default 4×KeepaliveInterval).
	IdleTimeout time.Duration
	// WriteTimeout bounds every frame write (default 5 s).
	WriteTimeout time.Duration

	// OnEvent, when set, receives connection lifecycle and reader
	// status events. It is called from the session's goroutines; keep
	// it fast and do not call back into the session.
	OnEvent func(SessionEvent)

	// Obs selects the metrics registry session telemetry (connects,
	// reconnects, resume gaps, keepalive RTT, decode errors) lands in.
	// Nil selects obs.Default().
	Obs *obs.Registry

	// Flight, when set, receives a flight-recorder dump every time the
	// reconnect circuit breaker opens — the black-box record of a
	// flapping reader link. Nil disables.
	Flight *trace.Flight
	// FlightStream names the stream in breaker dumps (default Addr).
	FlightStream string
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.BackoffInitial <= 0 {
		c.BackoffInitial = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = 2 * time.Second
	}
	if c.IdleTimeout <= 0 {
		if c.KeepaliveInterval > 0 {
			c.IdleTimeout = 4 * c.KeepaliveInterval
		} else {
			c.IdleTimeout = 30 * time.Second
		}
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 30 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.FlightStream == "" {
		c.FlightStream = c.Addr
	}
	return c
}

// SessionEventKind classifies session lifecycle events.
type SessionEventKind int

// Session event kinds.
const (
	// SessionConnected fires after a successful handshake + start.
	SessionConnected SessionEventKind = iota + 1
	// SessionDisconnected fires when a live link fails.
	SessionDisconnected
	// SessionRetrying fires before each retry delay: a backoff, or an
	// open breaker's cool-down.
	SessionRetrying
	// SessionReaderInfo relays an informational reader event payload.
	SessionReaderInfo
)

// SessionEvent is one lifecycle notification.
type SessionEvent struct {
	Kind SessionEventKind
	// Attempt is the consecutive failed-connect count (SessionRetrying).
	Attempt int
	// Wait is the delay about to be slept (SessionRetrying).
	Wait time.Duration
	// Err is the failure that triggered the event, when any.
	Err error
	// Info is the reader's payload for SessionReaderInfo.
	Info string
	// ResumeFrom is the timestamp the session will resume from
	// (SessionConnected; NoResume on a fresh stream).
	ResumeFrom time.Duration
}

// ErrSessionClosed is returned after Close.
var ErrSessionClosed = errors.New("llrp: session closed")

// ErrGiveUp wraps the last connect error once MaxAttempts consecutive
// attempts have failed.
var ErrGiveUp = errors.New("llrp: reconnect attempts exhausted")

// errReaderFault tags reader-reported protocol errors, which no
// reconnect can fix.
var errReaderFault = errors.New("llrp: reader fault")

// Session is the reader client: it dials, starts the ROSpec, and
// streams report batches through readBatch, the one loop that reads
// report frames. It reconnects with capped exponential backoff when
// the link fails, resumes the stream from the last-seen report
// timestamp, pings the reader so dead links are detected by deadline
// instead of hanging forever, and only reports ErrStreamEnded on a
// *clean* end (the reader's "rospec complete"/"rospec stopped" events)
// — an EOF or reset mid-stream triggers a reconnect, never a silent
// truncation.
//
// A resumed stream may replay a short overlap (the server seeks
// slightly before the resume point so timestamp ties are never lost);
// consumers must tolerate duplicate reports, which the recognition
// pipeline does.
//
// NextReports must be called from a single goroutine; Close, Stop and
// Stats are safe from any.
type Session struct {
	cfg SessionConfig
	ctx context.Context
	tel *sessionTel

	// Consumer-goroutine-only state. delivered reports whether the
	// current link has delivered a batch: until it has, its drop is a
	// failed connect attempt.
	rng       *rand.Rand
	attempts  int
	delivered bool
	// The reconnect circuit breaker (BreakerThreshold > 0): its
	// position, the failed connects in the current streak, and when
	// the streak's first failure happened. A connect closes it; only a
	// delivered batch ends the streak.
	brkState breakerState
	brkFails int
	brkFirst time.Time

	// mu guards everything below: the link (conn/client share the
	// client's frame writer with the keepalive pinger) and the
	// counters. It is never held across blocking reads; writes are
	// bounded by WriteTimeout.
	mu         sync.Mutex
	conn       net.Conn
	client     *Client
	kaStop     chan struct{}
	lastSeen   time.Duration
	seenAny    bool
	reconnects int
	closed     bool
	// downAt is when the current outage began (zero when the link is
	// up or never established); connectOnce turns it into the
	// resume-gap observation.
	downAt time.Time
	// pingAt/pingPending track the in-flight keepalive so its echo
	// yields an RTT sample.
	pingAt      time.Time
	pingPending bool
}

// SessionStats is a point-in-time snapshot of session health.
type SessionStats struct {
	// Reconnects counts successful re-establishments after the first
	// connect.
	Reconnects int
	// LastSeen is the newest report timestamp delivered (NoResume if
	// none yet).
	LastSeen time.Duration
	// Connected reports whether a link is currently up.
	Connected bool
}

// DialSession establishes a fault-tolerant session and starts the
// ROSpec. The initial connect honors the same backoff/MaxAttempts
// policy as reconnects, so the backend may start before the reader.
func DialSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	s := &Session{
		cfg: cfg.withDefaults(),
		ctx: ctx,
		tel: newSessionTel(cfg.Obs),
		rng: rand.New(rand.NewSource(cfg.JitterSeed)),
	}
	obs.EnableRuntimeMetrics(obs.Or(cfg.Obs))
	if cfg.BreakerThreshold > 0 {
		s.tel.breaker.Set(float64(breakerClosed))
	}
	if err := s.connectWithRetry(); err != nil {
		return nil, err
	}
	return s, nil
}

// NextReports blocks for the next report batch, reconnecting and
// resuming as needed. It returns ErrStreamEnded on a clean end,
// ctx.Err() on cancellation, and ErrGiveUp (wrapping the last network
// error) when MaxAttempts consecutive reconnects fail.
//
// The returned slice is a reused decode buffer: it is valid only until
// the next NextReports call, which overwrites it in place. The drain
// loop (live.Drainer.Drain) decodes each batch into a pooled columnar
// batch before it pulls the next; a consumer that needs to retain a
// batch must copy it.
func (s *Session) NextReports() ([]TagReport, error) {
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		closed, conn, client := s.closed, s.conn, s.client
		s.mu.Unlock()
		if closed {
			return nil, ErrSessionClosed
		}
		if client == nil {
			if err := s.connectWithRetry(); err != nil {
				return nil, err
			}
			continue
		}
		batch, err := s.readBatch(conn, client)
		if err == nil {
			s.attempts, s.brkFails, s.delivered = 0, 0, true
			if len(batch) == 0 {
				continue
			}
			s.noteSeen(batch)
			s.tel.batches.Inc()
			s.tel.reports.Add(uint64(len(batch)))
			return batch, nil
		}
		if errors.Is(err, ErrStreamEnded) || errors.Is(err, errReaderFault) {
			return nil, err
		}
		// Anything else — EOF, reset, deadline, corruption — is a link
		// failure: drop the connection and loop into a reconnect. A link
		// that never delivered a batch failed as a connect attempt, so
		// it backs off first; reconnecting at once would spin against a
		// reader that accepts and hangs up.
		s.dropConn(conn, err)
		if !s.delivered {
			if err := s.failedAttempt(err); err != nil {
				return nil, err
			}
		}
	}
}

// readBatch reads frames until a report batch or terminal condition.
func (s *Session) readBatch(conn net.Conn, client *Client) ([]TagReport, error) {
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		msg, err := client.in.next()
		if err != nil {
			return nil, err
		}
		switch msg.Type {
		case MsgROAccessReport:
			reports, err := client.decode(msg.Payload)
			if err != nil {
				// Corrupt frame: resync is impossible on a byte
				// stream, so treat it as a link failure.
				s.tel.decodeErrs.Inc()
				return nil, err
			}
			return reports, nil
		case MsgKeepalive:
			s.noteKeepaliveEcho()
			continue
		case MsgReaderEvent:
			switch ClassifyEvent(msg.Payload) {
			case EventStreamEnd:
				return nil, ErrStreamEnded
			default:
				s.emit(SessionEvent{Kind: SessionReaderInfo, Info: string(msg.Payload)})
				continue
			}
		case MsgError:
			return nil, fmt.Errorf("%w: %s", errReaderFault, msg.Payload)
		default:
			return nil, fmt.Errorf("llrp: unexpected %v", msg.Type)
		}
	}
}

// connectWithRetry dials until a link is up, the context dies, or
// MaxAttempts consecutive attempts fail.
func (s *Session) connectWithRetry() error {
	for {
		err := s.connectOnce()
		if err == nil {
			s.delivered = false
			s.setBreaker(breakerClosed)
			return nil
		}
		if errors.Is(err, ErrSessionClosed) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if err := s.failedAttempt(err); err != nil {
			return err
		}
	}
}

// failedAttempt counts a failed connect attempt, err, and sleeps the
// retry schedule's next delay: a capped exponential backoff with seeded
// jitter. With a breaker armed, the breaker is the schedule's last
// step: once it opens, the next delay is its cool-down and the attempt
// after it the half-open probe. It returns ErrGiveUp at MaxAttempts,
// and the context's error if it dies during the sleep.
func (s *Session) failedAttempt(err error) error {
	s.breakerFailure()
	s.attempts++
	if s.cfg.MaxAttempts > 0 && s.attempts >= s.cfg.MaxAttempts {
		return fmt.Errorf("%w after %d attempts: %v", ErrGiveUp, s.attempts, err)
	}
	s.tel.retries.Inc()
	wait := s.retryDelay()
	s.emit(SessionEvent{Kind: SessionRetrying, Attempt: s.attempts, Wait: wait, Err: err})
	t := time.NewTimer(wait)
	select {
	case <-s.ctx.Done():
		t.Stop()
		return s.ctx.Err()
	case <-t.C:
	}
	if s.brkState == breakerOpen {
		s.setBreaker(breakerHalfOpen)
	}
	return nil
}

// breakerState is the reconnect circuit breaker's position; the values
// are the llrp_session_breaker_state gauge's.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breakerFailure counts a failed connect against an armed breaker. A
// failed half-open probe re-opens it at once; otherwise the windowed
// streak advances (restarting when its first failure is older than
// BreakerWindow) and opens the breaker at BreakerThreshold.
func (s *Session) breakerFailure() {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	if s.brkState == breakerClosed {
		now := time.Now()
		if s.brkFails == 0 || now.Sub(s.brkFirst) > s.cfg.BreakerWindow {
			s.brkFails = 0
			s.brkFirst = now
		}
		s.brkFails++
		if s.brkFails < s.cfg.BreakerThreshold {
			return
		}
	}
	s.brkFails = 0
	s.setBreaker(breakerOpen)
	// The breaker opening IS the anomaly — the link flapped past its
	// failure budget. Record it even with no trace attached.
	s.cfg.Flight.Record(trace.Dump{
		Trigger: trace.TriggerBreakerOpen,
		Stream:  s.cfg.FlightStream,
		Detail: fmt.Sprintf("reconnect breaker opened after %d failures in %v",
			s.cfg.BreakerThreshold, s.cfg.BreakerWindow),
	})
}

// setBreaker moves an armed breaker and its gauge.
func (s *Session) setBreaker(st breakerState) {
	if s.cfg.BreakerThreshold > 0 && s.brkState != st {
		s.brkState = st
		s.tel.breaker.Set(float64(st))
	}
}

// retryDelay is the schedule's next delay: the attempt's backoff, or,
// while the breaker is open, its cool-down jittered into [Cooldown,
// 1.5×Cooldown] so a fleet of sessions does not probe in lockstep.
func (s *Session) retryDelay() time.Duration {
	if s.brkState != breakerOpen {
		return s.backoff(s.attempts)
	}
	s.tel.brkBlocked.Inc()
	d := float64(s.cfg.BreakerCooldown)
	return time.Duration(d + d/2*s.rng.Float64())
}

// backoffFactor is the per-attempt growth of the reconnect delay.
const backoffFactor = 2

// backoff computes the nth delay: BackoffInitial·2^(n-1) capped at
// BackoffMax, then jittered into [½·d, d] so a fleet of backends does
// not reconnect in lockstep.
func (s *Session) backoff(attempt int) time.Duration {
	d := float64(s.cfg.BackoffInitial)
	for i := 1; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(s.cfg.BackoffMax) {
			d = float64(s.cfg.BackoffMax)
			break
		}
	}
	d = d/2 + d/2*s.rng.Float64()
	return time.Duration(d)
}

// connectOnce dials, handshakes, starts (or resumes) the ROSpec, and
// installs the new link.
func (s *Session) connectOnce() error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	var conn net.Conn
	var err error
	if s.cfg.Dialer != nil {
		conn, err = s.cfg.Dialer(s.ctx)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(s.ctx, "tcp", s.cfg.Addr)
	}
	if err != nil {
		return fmt.Errorf("llrp: dial: %w", err)
	}
	client := NewClient(conn)
	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	msg, err := client.in.next()
	if err != nil {
		conn.Close()
		return fmt.Errorf("llrp: handshake: %w", err)
	}
	if msg.Type != MsgReaderEvent || ClassifyEvent(msg.Payload) != EventHandshake {
		conn.Close()
		return fmt.Errorf("llrp: handshake: unexpected %v %q", msg.Type, msg.Payload)
	}
	resume := s.resumePoint()
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if err := client.StartFrom(resume); err != nil {
		conn.Close()
		return fmt.Errorf("llrp: start: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrSessionClosed
	}
	s.conn = conn
	s.client = client
	s.kaStop = make(chan struct{})
	if s.seenAny {
		s.reconnects++
		s.tel.reconnects.Inc()
	}
	if !s.downAt.IsZero() {
		s.tel.resumeGap.ObserveDuration(time.Since(s.downAt))
		s.downAt = time.Time{}
	}
	s.pingPending = false
	stop := s.kaStop
	s.mu.Unlock()
	s.tel.connects.Inc()
	s.tel.connected.Set(1)
	if s.cfg.KeepaliveInterval > 0 {
		go s.pinger(conn, stop)
	}
	s.emit(SessionEvent{Kind: SessionConnected, ResumeFrom: resume})
	return nil
}

// pinger sends keepalives so the server's idle deadline stays met and
// a dead link surfaces as a read/write timeout instead of a hang.
func (s *Session) pinger(conn net.Conn, stop chan struct{}) {
	t := time.NewTicker(s.cfg.KeepaliveInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.mu.Lock()
			if s.conn != conn { // superseded by a reconnect or Close
				s.mu.Unlock()
				return
			}
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			err := s.client.Keepalive()
			if err == nil && !s.pingPending {
				s.pingAt = time.Now()
				s.pingPending = true
			}
			s.mu.Unlock()
			if err != nil {
				// The read side will fail shortly; hasten it.
				conn.Close()
				return
			}
		}
	}
}

// dropConn tears down the given link after a failure (a no-op when a
// concurrent Close already did).
func (s *Session) dropConn(conn net.Conn, cause error) {
	s.mu.Lock()
	if s.conn != conn {
		s.mu.Unlock()
		return
	}
	close(s.kaStop)
	s.kaStop = nil
	s.conn = nil
	s.client = nil
	s.downAt = time.Now()
	s.mu.Unlock()
	conn.Close()
	s.tel.disconnects.Inc()
	s.tel.connected.Set(0)
	s.emit(SessionEvent{Kind: SessionDisconnected, Err: cause})
}

// noteKeepaliveEcho turns the in-flight ping's echo into an RTT
// sample. Echoes arriving after a reconnect (pingPending cleared) are
// ignored rather than measured across two different links.
func (s *Session) noteKeepaliveEcho() {
	s.mu.Lock()
	pending, at := s.pingPending, s.pingAt
	s.pingPending = false
	s.mu.Unlock()
	if pending {
		s.tel.kaRTT.ObserveDuration(time.Since(at))
	}
}

// resumePoint returns the timestamp to resume from.
func (s *Session) resumePoint() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seenAny {
		return NoResume
	}
	return s.lastSeen
}

// noteSeen advances the resume point past a delivered batch.
func (s *Session) noteSeen(batch []TagReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range batch {
		if !s.seenAny || r.Timestamp > s.lastSeen {
			s.lastSeen = r.Timestamp
			s.seenAny = true
		}
	}
}

// Stop asks the reader to end the ROSpec (best effort; the terminal
// event then arrives via NextReports).
func (s *Session) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil {
		return ErrSessionClosed
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return s.client.Stop()
}

// Close tears the session down; subsequent calls are no-ops.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.tel.connected.Set(0)
	if s.kaStop != nil {
		close(s.kaStop)
		s.kaStop = nil
	}
	if s.conn != nil {
		err := s.conn.Close()
		s.conn = nil
		s.client = nil
		return err
	}
	return nil
}

// Stats snapshots session health.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := NoResume
	if s.seenAny {
		last = s.lastSeen
	}
	return SessionStats{
		Reconnects: s.reconnects,
		LastSeen:   last,
		Connected:  s.client != nil,
	}
}

// emit delivers an event to the configured observer.
func (s *Session) emit(ev SessionEvent) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}
