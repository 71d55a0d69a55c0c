// Package engine is the concurrent multi-stream recognition service:
// it shards independent tag streams by ID across a bounded worker
// pool, running one calibrate-then-recognize state machine
// (live.Stream) per stream. Each worker owns one mailbox and every
// stream hashed to it, so per-stream state needs no locking; streams
// on the same shard interleave batch by batch, so a stalled or faulted
// source never blocks its shard siblings — it simply stops producing
// items. Backpressure is explicit: PushBatch never blocks and refuses
// the batch (counting the refusal) when the shard's mailbox is full,
// leaving it with the caller, while RunStream — the source-driven path,
// which runs the one drain loop (live.Drainer) with the engine's
// blocking push — propagates the backpressure to the session it
// drains.
package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// StreamID names one independent tag stream (one plate / one reader
// session). The ID is hashed to pick the owning shard, so a stream's
// readings are always processed in order by a single worker.
type StreamID string

// ErrClosed is returned by source-driven feeds once Close has begun.
var ErrClosed = errors.New("engine: closed")

// ErrStreamExists is returned by AdoptStream when the engine already
// holds state for the stream — adopting over live state would silently
// discard recognition in progress.
var ErrStreamExists = errors.New("engine: stream already exists")

// Config tunes an Engine.
type Config struct {
	// Workers is the shard count — the bound on recognition
	// parallelism (default GOMAXPROCS).
	Workers int
	// Stream is the per-stream recognition config (grid geometry,
	// calibration prelude, flush horizon, recognizer registry). A nil
	// Stream.Obs defaults to Obs, so one registry holds the engine's
	// and its recognizers' series.
	Stream live.Config
	// OnEvent receives every recognition event, tagged with its
	// stream. It is called from shard goroutines — implementations
	// must be safe for concurrent use across streams (events of one
	// stream are always delivered sequentially).
	OnEvent func(StreamID, core.Event)
	// Obs selects the metrics registry the engine_* series land in
	// (nil = obs.Default()).
	Obs *obs.Registry
	// Logger receives structured per-stream lifecycle records
	// (optional; nil disables).
	Logger *slog.Logger

	// Trace, when set, records each sampled stream's lifecycle spans
	// (mailbox wait, sanitize, ingest, calibrate/restore, result,
	// quarantine, adopt/skipto) into its per-stream ring. Nil disables
	// tracing; an unsampled stream costs one nil check per batch.
	Trace *trace.Tracer
	// TraceNode attributes this engine's spans to a cluster member
	// (set by cluster.AddNode; empty for a standalone engine).
	TraceNode string
	// Flight, when set, receives anomaly dumps: a panic quarantine or
	// a corrupt checkpoint dumps the stream's recent spans and
	// readings summary to the flight log.
	Flight *trace.Flight

	// Checkpoints, when set, makes streams durable: each stream's
	// calibration and frame cursor are saved on calibration
	// completion, every CheckpointEvery, and at drain; a stream whose
	// checkpoint is fresher than CheckpointMaxAge restores at creation
	// and skips the calibration prelude.
	Checkpoints *supervise.Store
	// CheckpointEvery is the periodic per-shard save interval
	// (default 30 s).
	CheckpointEvery time.Duration
	// CheckpointMaxAge bounds restore staleness (default 15 min).
	CheckpointMaxAge time.Duration
	// Epoch, when set, resolves a stream's current ownership epoch at
	// checkpoint-write time (the cluster wires it to the node's lease
	// table). The epoch rides every checkpoint the engine saves or
	// evicts, making Store.Save a fenced compare-and-swap against
	// concurrent owners. The second return reports whether the caller
	// holds an epoch for the stream; when false — or Epoch is nil, the
	// standalone case — the engine falls back to the epoch the stream's
	// state was restored or adopted with.
	Epoch func(StreamID) (uint64, bool)
	// DrainTimeout bounds how long Close spends handling mailbox
	// backlog before abandoning the remainder (default 5 s). Flushes
	// and checkpoint writes still run for every stream.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.CheckpointMaxAge <= 0 {
		c.CheckpointMaxAge = 15 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Stream.Obs == nil {
		c.Stream.Obs = c.Obs
	}
	return c
}

// StreamResult summarizes one stream after Close.
type StreamResult struct {
	// ID is the stream's name.
	ID StreamID
	// Letters is the recognized text.
	Letters string
	// Strokes counts recognized strokes.
	Strokes int
	// DeadTags is how many tags calibration flagged dead.
	DeadTags int
	// Calibrated reports whether the static prelude completed.
	Calibrated bool
	// Readings counts readings the stream's recognizer ingested.
	Readings int
	// Dropped counts readings the stream lost: the admitted readings
	// of the batch that turned it terminal (e.g. calibration failure)
	// and every reading that arrived after. Batches refused at the
	// mailbox never reach the stream and stay with the pusher.
	Dropped int
	// Err is the stream's terminal error, if any.
	Err error
}

// telemetry bundles the engine_* instruments.
type telemetry struct {
	reg         *obs.Registry
	streams     *obs.Gauge
	calibrated  *obs.Gauge
	deadTags    *obs.Gauge
	quarantined *obs.Gauge
	accepting   *obs.Gauge
	batches     *obs.Counter
	readings    *obs.Counter
	rejected    *core.Sanitizer
	overflow    *obs.Counter
	droppedR    *obs.Counter
	abandoned   *obs.Counter
	strokes     *obs.Counter
	letters     *obs.Counter
	errors      *obs.Counter
	panics      *obs.Counter
	ckptSaved   *obs.Counter
	ckptErrors  *obs.Counter
	ckptFenced  *obs.Counter
	evicted     *obs.Counter
	adopted     *obs.Counter
	restore     restoreCounters
}

func newTelemetry(reg *obs.Registry) *telemetry {
	return &telemetry{
		reg: reg,
		streams: reg.Gauge("engine_streams",
			"Streams the engine has seen (cumulative per run)."),
		calibrated: reg.Gauge("engine_streams_calibrated",
			"Streams whose calibration is complete or restored."),
		deadTags: reg.Gauge("engine_dead_tags",
			"Dead tags summed over calibrated streams (their cells are interpolated)."),
		quarantined: reg.Gauge("engine_streams_quarantined",
			"Streams quarantined after a panic in their handler."),
		accepting: reg.Gauge("engine_accepting",
			"Whether the engine is accepting pushes (0 once Close begins)."),
		batches: reg.Counter("engine_batches_total",
			"Reading batches accepted into shard mailboxes."),
		readings: reg.Counter("engine_readings_total",
			"Readings ingested across all streams."),
		rejected: core.NewSanitizer(reg),
		overflow: reg.Counter("engine_overflow_total",
			"Pushes refused because the owning shard's mailbox was full or the engine closed."),
		droppedR: reg.Counter("engine_dropped_readings_total",
			"Readings the engine lost: terminal streams and backlog abandoned at drain."),
		abandoned: reg.Counter("engine_drain_abandoned_total",
			"Batches abandoned because the drain deadline expired at Close."),
		strokes: reg.Counter("engine_events_total",
			"Recognition events emitted.", obs.L("kind", "stroke")),
		letters: reg.Counter("engine_events_total",
			"Recognition events emitted.", obs.L("kind", "letter")),
		errors: reg.Counter("engine_stream_errors_total",
			"Streams that ended with a terminal error."),
		panics: PanicCounter(reg),
		ckptSaved: reg.Counter("engine_checkpoints_saved_total",
			"Stream calibration checkpoints written."),
		ckptErrors: reg.Counter("engine_checkpoint_errors_total",
			"Checkpoint writes that failed."),
		ckptFenced: reg.Counter("engine_checkpoints_fenced_total",
			"Checkpoint writes rejected by the ownership fence (a newer epoch is stored)."),
		evicted: reg.Counter("engine_streams_evicted_total",
			"Streams evicted for migration, with their checkpoint handed to the caller."),
		adopted: reg.Counter("engine_streams_adopted_total",
			"Streams adopted from a migrated checkpoint, skipping calibration."),
		restore: newRestoreCounters(reg),
	}
}

// PanicCounter returns reg's engine_stream_panics_total, the one series
// a recovered stream panic counts on: a stream handler's, which
// quarantines its stream, or a report source's, which ends its drain
// (live.Drainer). A cluster's drain loops count on its registry's
// series, which its nodes' engines share.
func PanicCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("engine_stream_panics_total",
		"Panics recovered in stream handlers (each quarantines its stream) and in report sources (each ends its drain).")
}

// countCalibrated moves the calibration gauges for one stream with
// deadTags dead tags: sign +1 when it calibrates (prelude, restore, or
// adoption), -1 when it leaves the engine calibrated (eviction).
func (t *telemetry) countCalibrated(sign, deadTags int) {
	t.calibrated.Add(float64(sign))
	t.deadTags.Add(float64(sign * deadTags))
}

// Ready is the readiness rule over a registry snapshot: the engine
// accepts pushes and at least one stream is calibrated (restored,
// adopted, or past its prelude), so traffic routed here can be
// recognized. Close drops it by clearing engine_accepting.
func Ready(snap obs.Snapshot) bool {
	return snap.Value("engine_accepting") == 1 && snap.Value("engine_streams_calibrated") > 0
}

// itemOp selects what a shard does with a mailbox item.
type itemOp uint8

const (
	// opBatch ingests a batch of readings.
	opBatch itemOp = iota
	// opFlush forces the stream's pending stroke and letter out.
	opFlush
	// opEvict removes a calibrated stream and replies with its
	// checkpoint (the cluster migration hook).
	opEvict
	// opAdopt seeds a stream from a migrated checkpoint.
	opAdopt
)

// ctrlReply answers an evict or adopt control item.
type ctrlReply struct {
	cp  supervise.Checkpoint
	ok  bool
	err error
}

// item is one unit of shard work: a batch of readings for a stream, a
// flush marker, or an evict/adopt control operation.
type item struct {
	op    itemOp
	id    StreamID
	cols  *core.ReadingBatch // opBatch payload; returned to the pool by the engine
	enq   time.Time
	cp    supervise.Checkpoint // adopt payload
	reply chan ctrlReply       // evict/adopt reply (buffered, capacity 1)
}

// streamState is a shard-owned stream: its recognizer state machine
// plus the accumulating result. Only the owning shard goroutine
// touches it.
type streamState struct {
	id      StreamID
	st      *live.Stream
	res     StreamResult
	latency *obs.Histogram
	// tr is the stream's trace handle; nil when the stream is
	// unsampled, making every span site a single-branch no-op.
	tr *trace.StreamTrace
	// epoch is the ownership epoch the stream's state arrived with
	// (restore or adoption); the fallback stamp when Config.Epoch has
	// no live grant for the stream.
	epoch   uint64
	flushed bool
	// quarantined marks a stream whose handler panicked: its state
	// was dropped and every later item is discarded (but accounted).
	quarantined bool
}

type shard struct {
	eng     *Engine
	mail    chan item
	stop    chan struct{}
	streams map[StreamID]*streamState
}

// Engine is the sharded multi-stream recognition service. Build with
// New, feed with PushBatch or RunStream, and Close to flush every
// stream and collect results.
type Engine struct {
	cfg    Config
	tel    *telemetry
	drain  live.Drainer
	shards []*shard
	wg     sync.WaitGroup
	closed atomic.Bool

	closeOnce sync.Once
	final     []StreamResult

	mu      sync.Mutex
	results []StreamResult
}

// queueDepth is each shard's mailbox capacity in batches.
const queueDepth = 256

// New starts an engine: cfg.Workers shard goroutines, each owning a
// mailbox of queueDepth batches.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	reg := obs.Or(cfg.Obs)
	obs.EnableRuntimeMetrics(reg)
	e := &Engine{cfg: cfg, tel: newTelemetry(reg)}
	e.drain = live.Drainer{Panics: e.tel.panics, Logger: cfg.Logger}
	e.tel.accepting.Set(1)
	for i := 0; i < cfg.Workers; i++ {
		s := &shard{
			eng:     e,
			mail:    make(chan item, queueDepth),
			stop:    make(chan struct{}),
			streams: map[StreamID]*streamState{},
		}
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			s.run()
		}()
	}
	return e
}

// shardIndex hashes a stream ID (FNV-1a) onto [0, n) without
// allocating.
func shardIndex(id StreamID, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func (e *Engine) shardFor(id StreamID) *shard {
	return e.shards[shardIndex(id, len(e.shards))]
}

// PushBatch enqueues one columnar batch for a stream without blocking.
// An accepted batch belongs to the engine, which returns it to the pool
// once ingested. When the owning shard's mailbox is full, or the engine
// is closed, PushBatch reports false, counts the refusal in
// engine_overflow_total, and leaves the batch untouched with the
// caller: retrying it later loses nothing, and a caller that gives up
// counts the loss itself and returns the batch to the pool. An empty
// batch is accepted (and pooled) without touching the mailbox.
func (e *Engine) PushBatch(id StreamID, b *core.ReadingBatch) bool {
	if b == nil || b.Len() == 0 {
		core.PutBatch(b)
		return true
	}
	return e.tryPush(item{id: id, cols: b, enq: time.Now()})
}

// tryPush enqueues without blocking. A full mailbox or a closed engine
// refuses the item, counted in engine_overflow_total.
func (e *Engine) tryPush(it item) bool {
	if !e.closed.Load() {
		select {
		case e.shardFor(it.id).mail <- it:
			return true
		default:
		}
	}
	e.tel.overflow.Inc()
	return false
}

// pushWait enqueues with backpressure: a full mailbox waits instead of
// refusing. Returns false once the engine is closing.
func (e *Engine) pushWait(it item) bool {
	if e.closed.Load() {
		return false
	}
	s := e.shardFor(it.id)
	select {
	case s.mail <- it:
		return true
	case <-s.stop:
		return false
	}
}

// FlushStream forces a stream's pending stroke and letter out, as if
// its source had gone quiet past the flush horizon. Blocks until the
// marker is enqueued (flushes are never load-shed). A stream that
// ingests more readings after a flush can be flushed again.
func (e *Engine) FlushStream(id StreamID) {
	e.pushWait(item{op: opFlush, id: id, enq: time.Now()})
}

// TryFlushStream is FlushStream without the wait: it enqueues the flush
// marker only when the stream's shard mailbox has room, and reports
// whether it did. A refusal is counted in engine_overflow_total, like
// a refused PushBatch.
func (e *Engine) TryFlushStream(id StreamID) bool {
	return e.tryPush(item{op: opFlush, id: id, enq: time.Now()})
}

// EvictStream removes a calibrated stream from its shard and returns
// the checkpoint the new owner resumes from — the donor side of a
// cluster migration. The stream's partial result is recorded for
// Close. ok is false when the stream is unknown, not yet calibrated,
// quarantined, or the engine is closing; in every ok=false case any
// existing stream state is left untouched, because an uncalibrated
// stream carries nothing worth migrating and dropping its prelude
// would silently lose calibration progress.
func (e *Engine) EvictStream(id StreamID) (supervise.Checkpoint, bool) {
	reply := make(chan ctrlReply, 1)
	if !e.pushWait(item{op: opEvict, id: id, enq: time.Now(), reply: reply}) {
		return supervise.Checkpoint{}, false
	}
	r := <-reply
	return r.cp, r.ok
}

// AdoptStream seeds a stream from a migrated checkpoint — the receiver
// side of a cluster migration. The adopted stream is calibrated from
// the checkpoint and resumes at its frame cursor via SkipTo, so the
// first pushed batch is recognized with no recalibration. Returns
// ErrStreamExists when the engine already holds state for the stream,
// ErrClosed once Close has begun, or the restore error when the
// checkpoint payload is unusable (the caller falls back to live
// calibration).
func (e *Engine) AdoptStream(id StreamID, cp supervise.Checkpoint) error {
	reply := make(chan ctrlReply, 1)
	if !e.pushWait(item{op: opAdopt, id: id, enq: time.Now(), cp: cp, reply: reply}) {
		return ErrClosed
	}
	return (<-reply).err
}

// RunStream drains a report source (an llrp.Session, a replay, or any
// live.ReportSource) into the engine until the stream ends, through the
// one drain loop (live.Drainer.Drain): a clean end or a source error
// flushes the stream, and a panicking source becomes this stream's
// error (flushed and counted), never a crashed worker pool. Blocks the
// calling goroutine; run one goroutine per source. Batches are enqueued
// with backpressure — a slow shard slows this source rather than
// dropping its readings. Once Close has begun, RunStream returns
// ErrClosed.
func (e *Engine) RunStream(id StreamID, src live.ReportSource) error {
	err := e.drain.Drain(string(id), src,
		func(b *core.ReadingBatch) error { return e.pushDrained(id, b) },
		func() { e.FlushStream(id) })
	if err == nil || err == ErrClosed {
		return err
	}
	return fmt.Errorf("engine: stream %s: %w", id, err)
}

// pushDrained is RunStream's push: it enqueues b with backpressure.
// Once Close has begun it returns b to the pool and reports ErrClosed.
func (e *Engine) pushDrained(id StreamID, b *core.ReadingBatch) error {
	if !e.pushWait(item{id: id, cols: b, enq: time.Now()}) {
		core.PutBatch(b)
		return ErrClosed
	}
	return nil
}

// Close stops intake, drains every mailbox (bounded by DrainTimeout),
// flushes every stream, writes final checkpoints, and returns the
// per-stream results sorted by ID. Idempotent: the drain runs once,
// and every later (or concurrent) call blocks until it completes and
// returns the same result slice.
func (e *Engine) Close() []StreamResult {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.tel.accepting.Set(0)
		for _, s := range e.shards {
			close(s.stop)
		}
		e.wg.Wait()
		if e.cfg.Logger != nil {
			// Final telemetry: the run's aggregate counters, so a drained
			// daemon leaves its evidence in the log even if nobody scraped
			// /metrics in time.
			e.cfg.Logger.Info("engine drained",
				"streams", e.tel.streams.Value(),
				"batches", e.tel.batches.Value(),
				"readings", e.tel.readings.Value(),
				"dropped_readings", e.tel.droppedR.Value(),
				"abandoned_batches", e.tel.abandoned.Value(),
				"stream_errors", e.tel.errors.Value(),
				"panics", e.tel.panics.Value(),
				"quarantined", e.tel.quarantined.Value(),
				"checkpoints_saved", e.tel.ckptSaved.Value())
		}
		e.mu.Lock()
		slices.SortFunc(e.results, func(a, b StreamResult) int {
			return strings.Compare(string(a.ID), string(b.ID))
		})
		e.final = e.results
		e.mu.Unlock()
	})
	return e.final
}

func (s *shard) run() {
	var tick <-chan time.Time
	if s.eng.cfg.Checkpoints != nil {
		t := time.NewTicker(s.eng.cfg.CheckpointEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case it := <-s.mail:
			s.handle(it)
		case <-tick:
			s.checkpointAll()
		case <-s.stop:
			// Drain whatever was enqueued before the close — bounded
			// by the drain deadline so a flooded mailbox cannot hold
			// shutdown hostage — then flush every stream, write final
			// checkpoints, and hand the results up.
			deadline := time.Now().Add(s.eng.cfg.DrainTimeout)
			for {
				select {
				case it := <-s.mail:
					if time.Now().After(deadline) {
						if it.reply != nil {
							// An abandoned control item must still answer,
							// or its caller hangs forever.
							it.reply <- ctrlReply{err: ErrClosed}
						}
						s.eng.tel.abandoned.Inc()
						if it.cols != nil {
							s.eng.tel.droppedR.Add(uint64(it.cols.Len()))
							core.PutBatch(it.cols)
						}
						continue
					}
					s.handle(it)
				default:
					s.finish()
					return
				}
			}
		}
	}
}

// stream fetches or creates the shard-local state for a stream. A new
// stream with a fresh-enough checkpoint restores from it, skipping the
// calibration prelude.
func (s *shard) stream(id StreamID) *streamState {
	st, ok := s.streams[id]
	if ok {
		return st
	}
	st = &streamState{
		id: id,
		latency: s.eng.tel.reg.Histogram("engine_event_latency_seconds",
			"Enqueue-to-emission latency of recognition events.",
			nil, obs.L("stream", string(id))),
	}
	st.res.ID = id
	st.tr = s.eng.cfg.Trace.Stream(string(id))
	if store := s.eng.cfg.Checkpoints; store != nil {
		if cp, err := store.LoadFresh(string(id), s.eng.cfg.CheckpointMaxAge); err == nil {
			restoreStart := time.Now()
			if restored, rerr := live.RestoreStream(s.eng.cfg.Stream, cp); rerr == nil {
				st.st = restored
				st.epoch = cp.Epoch
				st.res.Calibrated = true
				st.res.DeadTags = restored.DeadTags()
				s.eng.tel.restore.restored.Inc()
				s.eng.tel.countCalibrated(1, st.res.DeadTags)
				// A durable checkpoint carries the trace identity of the
				// previous incarnation: continue it rather than starting a
				// fresh ring, so a restart shows up as restore inside one
				// stitched trace.
				if tid, terr := trace.ParseID(cp.TraceID); terr == nil && tid != 0 {
					st.tr = s.eng.cfg.Trace.Adopt(string(id), tid)
				}
				st.tr.Add(trace.Span{Name: trace.SpanRestore, Node: s.eng.cfg.TraceNode,
					Start: restoreStart, Duration: time.Since(restoreStart), Count: st.res.DeadTags})
				if s.eng.cfg.Logger != nil {
					s.eng.cfg.Logger.Info("stream calibration restored",
						"stream", string(id), "saved_at", cp.SavedAt,
						"stream_time", cp.StreamTime, "dead_tags", st.res.DeadTags)
				}
			} else {
				s.eng.tel.restore.corrupt.Inc()
				s.flight(trace.TriggerCorruptCheckpoint, string(id), rerr.Error(), st.tr, nil)
				if s.eng.cfg.Logger != nil {
					s.eng.cfg.Logger.Warn("stream checkpoint unusable; calibrating live",
						"stream", string(id), "err", rerr)
				}
			}
		} else {
			s.eng.tel.restore.observeLoad(err)
			if errors.Is(err, supervise.ErrCorrupt) || errors.Is(err, supervise.ErrVersion) {
				s.flight(trace.TriggerCorruptCheckpoint, string(id), err.Error(), st.tr, nil)
			}
			if !errors.Is(err, supervise.ErrNoCheckpoint) && s.eng.cfg.Logger != nil {
				s.eng.cfg.Logger.Warn("stream checkpoint load failed; calibrating live",
					"stream", string(id), "err", err)
			}
		}
	}
	if st.st == nil {
		st.st = live.NewStream(s.eng.cfg.Stream)
	}
	s.streams[id] = st
	s.eng.tel.streams.Add(1)
	return st
}

// handle processes one item under the shard's recover boundary: a
// panic anywhere in the stream's state machine (or the caller's
// OnEvent) quarantines that stream while its shard siblings keep
// flowing. Evict/adopt control items have their own reply paths and
// never touch the quarantine machinery.
func (s *shard) handle(it item) {
	switch it.op {
	case opEvict:
		s.evict(it)
		return
	case opAdopt:
		s.adopt(it)
		return
	}
	st := s.stream(it.id)
	// The columnar payload is consumed within this call (the recognizer
	// never retains it), so it returns to the pool on every exit path —
	// including a quarantining panic.
	defer core.PutBatch(it.cols)
	defer func() {
		if r := recover(); r != nil {
			s.quarantine(st, r)
		}
	}()
	if it.op == opFlush {
		if !st.flushed && st.res.Err == nil {
			st.flushed = true
			s.deliver(st, st.st.Flush(), it.enq)
		}
		return
	}
	size := it.cols.Len()
	if st.res.Err != nil {
		// Terminal stream (calibration failed or quarantined):
		// discard but account.
		st.res.Dropped += size
		s.eng.tel.droppedR.Add(uint64(size))
		return
	}
	// New data re-arms the flush marker: a stream that keeps writing
	// after an explicit flush can be flushed again.
	st.flushed = false
	s.eng.tel.batches.Inc()
	s.eng.tel.readings.Add(uint64(size))
	var ingestStart time.Time
	if st.tr != nil {
		ingestStart = time.Now()
		st.tr.Add(trace.Span{Name: trace.SpanMailbox, Node: s.eng.cfg.TraceNode,
			Start: it.enq, Duration: ingestStart.Sub(it.enq), Count: size})
	}
	// Sanitize in place, then one IngestBatch call into the stream and
	// one delivery of the resulting events.
	s.eng.tel.rejected.AdmitColumns(it.cols, 0)
	admitted := it.cols.Len()
	rejected := size - admitted
	evs, err := st.st.IngestBatch(it.cols)
	if err != nil {
		// The batch that kills the stream is lost whole: its readings
		// reached no recognizer.
		st.res.Err = err
		st.res.Dropped += admitted
		s.eng.tel.droppedR.Add(uint64(admitted))
		s.eng.tel.errors.Inc()
		if st.tr != nil {
			s.ingestSpans(st, ingestStart, admitted, rejected, err)
		}
		if s.eng.cfg.Logger != nil {
			s.eng.cfg.Logger.Error("stream failed", "stream", string(st.id), "err", err)
		}
		return
	}
	st.res.Readings += admitted
	s.noteCalibrated(st)
	s.deliver(st, evs, it.enq)
	if st.tr != nil {
		s.ingestSpans(st, ingestStart, admitted, rejected, nil)
	}
}

// noteCalibrated records a stream's calibration completion exactly once
// — the gauge, trace span, checkpoint, and log line fire when
// Calibrated() first flips.
func (s *shard) noteCalibrated(st *streamState) {
	if st.res.Calibrated || !st.st.Calibrated() {
		return
	}
	st.res.Calibrated = true
	st.res.DeadTags = st.st.DeadTags()
	s.eng.tel.countCalibrated(1, st.res.DeadTags)
	st.tr.Add(trace.Span{Name: trace.SpanCalibrate, Node: s.eng.cfg.TraceNode,
		Start: time.Now(), Count: st.res.DeadTags})
	s.checkpoint(st)
	if s.eng.cfg.Logger != nil {
		s.eng.cfg.Logger.Info("stream calibrated",
			"stream", string(st.id), "dead_tags", st.res.DeadTags)
	}
}

// ingestSpans closes out one traced batch: the sanitize span (emitted
// only when readings were rejected) and the ingest span covering the
// recognizer pass, carrying the terminal error when the batch killed
// the stream. Callers check st.tr != nil.
func (s *shard) ingestSpans(st *streamState, start time.Time, admitted, rejected int, err error) {
	if rejected > 0 {
		st.tr.Add(trace.Span{Name: trace.SpanSanitize, Node: s.eng.cfg.TraceNode,
			Start: start, Count: rejected})
	}
	sp := trace.Span{Name: trace.SpanIngest, Node: s.eng.cfg.TraceNode,
		Start: start, Duration: time.Since(start), Count: admitted}
	if err != nil {
		sp.Err = err.Error()
	}
	st.tr.Add(sp)
}

// quarantine isolates a stream whose handler panicked: its state is
// dropped (nothing more will be recognized), later items are
// discarded, and the panic is logged with its stack. Shard siblings
// are untouched — the next mailbox item processes normally.
func (s *shard) quarantine(st *streamState, cause any) {
	detail := fmt.Sprint(cause)
	// Digest the stream's progress before its state is dropped — the
	// flight dump wants to say what the word had accomplished.
	sum := flightSummary(st)
	st.quarantined = true
	st.st = nil // drop the stream's state; every guard checks Err first
	st.flushed = true
	if st.res.Err == nil {
		st.res.Err = fmt.Errorf("engine: stream %s quarantined: panic: %v", st.id, cause)
		s.eng.tel.errors.Inc()
	}
	s.eng.tel.panics.Inc()
	s.eng.tel.quarantined.Add(1)
	st.tr.Add(trace.Span{Name: trace.SpanQuarantine, Node: s.eng.cfg.TraceNode,
		Start: time.Now(), Err: detail})
	s.flight(trace.TriggerPanic, string(st.id), detail, st.tr, sum)
	if s.eng.cfg.Logger != nil {
		s.eng.cfg.Logger.Error("stream handler panicked; stream quarantined",
			"stream", string(st.id), "panic", detail,
			"stack", string(debug.Stack()))
	}
}

// flightSummary digests a stream's accumulated result for a flight
// dump: counts only, never raw readings.
func flightSummary(st *streamState) *trace.Summary {
	sum := &trace.Summary{
		Readings:   st.res.Readings,
		Dropped:    st.res.Dropped,
		Strokes:    st.res.Strokes,
		Letters:    st.res.Letters,
		Calibrated: st.res.Calibrated,
		DeadTags:   st.res.DeadTags,
	}
	if st.st != nil {
		sum.LastTime = st.st.LastTime()
	}
	return sum
}

// flight records one anomaly dump — the trigger, the stream's summary,
// and the tail of its trace ring. No-op without a recorder.
func (s *shard) flight(trigger, stream, detail string, tr *trace.StreamTrace, sum *trace.Summary) {
	fl := s.eng.cfg.Flight
	if fl == nil {
		return
	}
	fl.Record(trace.Dump{
		Trigger: trigger,
		Node:    s.eng.cfg.TraceNode,
		Stream:  stream,
		Trace:   tr.ID(),
		Detail:  detail,
		Summary: sum,
		Spans:   tr.Spans(),
	})
}

// evict removes a calibrated stream from the shard, replying with its
// checkpoint. Unknown, uncalibrated, and quarantined streams reply
// ok=false and are left in place.
func (s *shard) evict(it item) {
	st, ok := s.streams[it.id]
	if !ok || st.quarantined || st.st == nil || !st.st.Calibrated() {
		it.reply <- ctrlReply{}
		return
	}
	cp, cok := st.st.Checkpoint(string(it.id))
	if !cok {
		it.reply <- ctrlReply{}
		return
	}
	if st.tr != nil {
		cp.TraceID = st.tr.ID().String()
	}
	s.stampEpoch(st, &cp)
	delete(s.streams, it.id)
	// The checkpoint is all the new owner needs; the stream's buffers go
	// to the next stream built in this process.
	st.st.Release()
	s.eng.tel.countCalibrated(-1, st.res.DeadTags)
	s.eng.tel.evicted.Inc()
	s.eng.mu.Lock()
	s.eng.results = append(s.eng.results, st.res)
	s.eng.mu.Unlock()
	if s.eng.cfg.Logger != nil {
		s.eng.cfg.Logger.Info("stream evicted for migration",
			"stream", string(it.id), "frame_cursor", cp.FrameCursor,
			"letters", st.res.Letters)
	}
	it.reply <- ctrlReply{cp: cp, ok: true}
}

// adopt seeds a stream from a migrated checkpoint. The checkpoint
// payload arrived over a network transfer, so the restore runs under a
// recover boundary that turns any panic into an error reply instead of
// a dead shard.
func (s *shard) adopt(it item) {
	replied := false
	reply := func(r ctrlReply) {
		if !replied {
			replied = true
			it.reply <- r
		}
	}
	defer func() {
		if r := recover(); r != nil {
			reply(ctrlReply{err: fmt.Errorf("engine: adopt %s: panic: %v", it.id, r)})
		}
	}()
	if _, ok := s.streams[it.id]; ok {
		reply(ctrlReply{err: fmt.Errorf("%w: %s", ErrStreamExists, it.id)})
		return
	}
	// Continue the donor's trace: the checkpoint frame carries its
	// TraceID, so the adopted stream's spans land in the same stitched
	// trace (a zero/absent ID keeps the stream unsampled here too).
	adoptStart := time.Now()
	tid, _ := trace.ParseID(it.cp.TraceID)
	tr := s.eng.cfg.Trace.Adopt(string(it.id), tid)
	restored, err := live.RestoreStream(s.eng.cfg.Stream, it.cp)
	if err != nil {
		tr.Add(trace.Span{Name: trace.SpanAdopt, Node: s.eng.cfg.TraceNode,
			Start: adoptStart, Duration: time.Since(adoptStart), Err: err.Error()})
		s.flight(trace.TriggerCorruptCheckpoint, string(it.id), err.Error(), tr, nil)
		reply(ctrlReply{err: err})
		return
	}
	st := &streamState{
		id:    it.id,
		st:    restored,
		tr:    tr,
		epoch: it.cp.Epoch,
		latency: s.eng.tel.reg.Histogram("engine_event_latency_seconds",
			"Enqueue-to-emission latency of recognition events.",
			nil, obs.L("stream", string(it.id))),
	}
	st.res.ID = it.id
	st.res.Calibrated = true
	st.res.DeadTags = restored.DeadTags()
	tr.Add(trace.Span{Name: trace.SpanAdopt, Node: s.eng.cfg.TraceNode,
		Start: adoptStart, Duration: time.Since(adoptStart)})
	tr.Add(trace.Span{Name: trace.SpanSkipTo, Node: s.eng.cfg.TraceNode,
		Start: adoptStart, Duration: time.Since(adoptStart), Count: st.res.DeadTags})
	s.streams[it.id] = st
	s.eng.tel.streams.Add(1)
	s.eng.tel.countCalibrated(1, st.res.DeadTags)
	s.eng.tel.adopted.Inc()
	if s.eng.cfg.Logger != nil {
		s.eng.cfg.Logger.Info("stream adopted from migrated checkpoint",
			"stream", string(it.id), "stream_time", it.cp.StreamTime,
			"frame_cursor", it.cp.FrameCursor, "dead_tags", st.res.DeadTags)
	}
	reply(ctrlReply{ok: true})
}

// stampEpoch resolves the ownership epoch a checkpoint is written
// under: the epoch the caller currently holds for the stream (live
// lease) when Config.Epoch reports one, else the epoch the stream's
// state arrived with. A stale owner therefore stamps its old epoch —
// exactly what lets the store's fence reject it.
func (s *shard) stampEpoch(st *streamState, cp *supervise.Checkpoint) {
	cp.Epoch = st.epoch
	if fn := s.eng.cfg.Epoch; fn != nil {
		if e, ok := fn(st.id); ok {
			cp.Epoch = e
		}
	}
}

// checkpoint persists one stream's calibration state, when enabled.
func (s *shard) checkpoint(st *streamState) {
	store := s.eng.cfg.Checkpoints
	if store == nil || st.quarantined || st.st == nil {
		return
	}
	cp, ok := st.st.Checkpoint(string(st.id))
	if !ok {
		return
	}
	if st.tr != nil {
		cp.TraceID = st.tr.ID().String()
	}
	s.stampEpoch(st, &cp)
	if err := store.Save(cp); err != nil {
		if errors.Is(err, supervise.ErrFenced) {
			// Not an I/O failure: the stream has a newer owner somewhere
			// and this engine's state is now provably stale. Keep the
			// stream running (results may still be gated upstream) but
			// record the anomaly distinctly.
			s.eng.tel.ckptFenced.Inc()
			s.flight(trace.TriggerFencedWrite, string(st.id), err.Error(), st.tr, nil)
			if s.eng.cfg.Logger != nil {
				s.eng.cfg.Logger.Warn("checkpoint write fenced; a newer owner holds the stream",
					"stream", string(st.id), "epoch", cp.Epoch, "err", err)
			}
			return
		}
		s.eng.tel.ckptErrors.Inc()
		if s.eng.cfg.Logger != nil {
			s.eng.cfg.Logger.Warn("checkpoint save failed", "stream", string(st.id), "err", err)
		}
		return
	}
	s.eng.tel.ckptSaved.Inc()
}

// checkpointAll persists every calibrated stream on the shard.
func (s *shard) checkpointAll() {
	for _, st := range s.streams {
		s.checkpoint(st)
	}
}

func (s *shard) deliver(st *streamState, evs []core.Event, enq time.Time) {
	if len(evs) == 0 {
		return
	}
	if st.tr != nil {
		st.tr.Add(trace.Span{Name: trace.SpanResult, Node: s.eng.cfg.TraceNode,
			Start: enq, Duration: time.Since(enq), Count: len(evs)})
	}
	for _, ev := range evs {
		st.latency.ObserveDuration(time.Since(enq))
		switch ev.Kind {
		case core.StrokeDetected:
			st.res.Strokes++
			s.eng.tel.strokes.Inc()
		case core.LetterDeduced:
			st.res.Letters += string(ev.Letter)
			s.eng.tel.letters.Inc()
		}
		if s.eng.cfg.OnEvent != nil {
			s.eng.cfg.OnEvent(st.id, ev)
		}
	}
}

// finish flushes every stream that has not been flushed (each under
// its own recover boundary — a panicking final flush quarantines that
// stream, not the drain), writes final checkpoints, releases every
// stream's buffers to the streams built after it, and reports the
// shard's results to the engine. A quarantined stream is never
// released: a panic may have left its buffers half-written.
func (s *shard) finish() {
	now := time.Now()
	results := make([]StreamResult, 0, len(s.streams))
	for _, st := range s.streams {
		if !st.flushed && st.res.Err == nil {
			func() {
				defer func() {
					if r := recover(); r != nil {
						s.quarantine(st, r)
					}
				}()
				s.deliver(st, st.st.Flush(), now)
			}()
		}
		s.checkpoint(st)
		if !st.quarantined {
			st.st.Release()
		}
		results = append(results, st.res)
	}
	s.eng.mu.Lock()
	s.eng.results = append(s.eng.results, results...)
	s.eng.mu.Unlock()
}
