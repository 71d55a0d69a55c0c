package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// Config tunes a cluster coordinator.
type Config struct {
	// VirtualNodes is the consistent-hash points per member
	// (default 64).
	VirtualNodes int
	// HeartbeatInterval is how often each node beats (default 500 ms).
	HeartbeatInterval time.Duration
	// FailAfter is the heartbeat silence that declares a node dead
	// (default 4× HeartbeatInterval). It trades detection latency
	// against false positives under scheduler jitter; the sim tests
	// shrink both to keep chaos runs fast.
	FailAfter time.Duration
	// LeaseDuration is the ownership lease each stream's owner holds,
	// renewed by every delivered heartbeat. It must be strictly shorter
	// than FailAfter so an owner the coordinator cannot hear
	// self-demotes before the failure detector reassigns its streams —
	// the no-two-writers guarantee — and strictly longer than
	// HeartbeatInterval, or renewal can never outrun expiry and every
	// healthy owner thrashes through demotion. Values outside
	// (HeartbeatInterval, FailAfter) default to 3/4 of FailAfter.
	LeaseDuration time.Duration
	// LeaseCheckEvery is the owner-side watchdog period for reaping
	// expired leases (default LeaseDuration/4, floored at 1ms).
	LeaseCheckEvery time.Duration

	// HandoffTimeout bounds one stream migration end to end — evict or
	// checkpoint load through adoption ack (default 5 s). Past it the
	// stream falls back to live calibration on its new owner instead
	// of wedging.
	HandoffTimeout time.Duration
	// HandoffAttemptTimeout bounds a single transfer attempt's dial
	// and I/O (default 1 s), so a half-open connection cannot absorb
	// the whole handoff budget.
	HandoffAttemptTimeout time.Duration
	// HandoffRetryInitial is the first retry backoff, doubling per
	// attempt (default 25 ms).
	HandoffRetryInitial time.Duration
	// PendingBatches bounds the batches buffered per stream while its
	// migration is in flight (default 64); overflow is shed and
	// counted.
	PendingBatches int
	// Dial overrides the handoff dialer (tests wrap it with faultnet
	// to inject partitions, delays, and drops; nil = net.DialTimeout).
	Dial Dialer

	// Stream is the per-stream recognition config every node's engine
	// shares.
	Stream live.Config
	// EngineWorkers is each node engine's shard count (default 1 in
	// engine).
	EngineWorkers int
	// Checkpoints, when set, is the durable store shared by all nodes.
	// It powers failure-driven handoff: a dead node cannot be asked
	// for its streams, so their calibration comes from the store. Nil
	// disables that path — streams on a dead node fall back to live
	// calibration.
	Checkpoints *supervise.Store
	// CheckpointEvery is each engine's periodic save interval.
	CheckpointEvery time.Duration
	// CheckpointMaxAge bounds handoff checkpoint staleness.
	CheckpointMaxAge time.Duration

	// OnEvent receives every recognition event tagged with the node
	// that produced it and the stream it belongs to. Called from shard
	// goroutines — must be safe for concurrent use.
	OnEvent func(NodeID, engine.StreamID, core.Event)
	// Obs selects the registry cluster_* (and every node's engine_*)
	// series land in (nil = obs.Default()). Nodes share it, so
	// counters aggregate cluster-wide.
	Obs *obs.Registry
	// Logger receives structured membership and handoff records
	// (optional).
	Logger *slog.Logger

	// Trace, when set, is the tracer every node's engine and the
	// coordinator share: migration spans (evict → transfer → adopt →
	// skipto) land in the same per-stream ring as the owning shard's
	// pipeline spans, stitched by the TraceID riding the checkpoint
	// frame. Nil disables tracing.
	Trace *trace.Tracer
	// Flight, when set, receives anomaly dumps from every node and the
	// coordinator: panic quarantines, corrupt handoff frames, and
	// handoffs that fell back to live recalibration.
	Flight *trace.Flight
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 4 * c.HeartbeatInterval
	}
	// Lease renewal rides the heartbeat, so a lease that cannot outlive
	// one heartbeat interval can never be renewed: every healthy owner
	// would thrash demote/restore and shed its results. Clamp to the
	// sound interval (HeartbeatInterval, FailAfter) when the config
	// admits one; a degenerate FailAfter barely above the heartbeat
	// splits the difference.
	minLease := c.HeartbeatInterval
	if minLease >= c.FailAfter {
		// FailAfter itself is inside one heartbeat interval — the
		// detector is unsound regardless, so only enforce (0, FailAfter).
		minLease = 0
	}
	if c.LeaseDuration <= minLease || c.LeaseDuration >= c.FailAfter {
		c.LeaseDuration = c.FailAfter * 3 / 4
		if c.LeaseDuration <= minLease {
			c.LeaseDuration = (minLease + c.FailAfter) / 2
		}
	}
	if c.LeaseCheckEvery <= 0 {
		c.LeaseCheckEvery = c.LeaseDuration / 4
	}
	if c.LeaseCheckEvery < time.Millisecond {
		c.LeaseCheckEvery = time.Millisecond
	}
	if c.HandoffTimeout <= 0 {
		c.HandoffTimeout = 5 * time.Second
	}
	if c.HandoffAttemptTimeout <= 0 {
		c.HandoffAttemptTimeout = time.Second
	}
	if c.HandoffRetryInitial <= 0 {
		c.HandoffRetryInitial = 25 * time.Millisecond
	}
	if c.PendingBatches <= 0 {
		c.PendingBatches = 64
	}
	return c
}

// member is one live node plus its failure-detector state.
type member struct {
	node     *Node
	lastBeat time.Time
}

// placement is one stream's routing entry. While a migration is in
// flight the stream buffers (bounded) instead of routing, so readings
// arriving mid-handoff reach the new owner in order.
type placement struct {
	node      NodeID
	migrating bool
	pending   [][]core.Reading
}

// migration is one stream move in flight.
type migration struct {
	id       engine.StreamID
	from     NodeID
	fromNode *Node // nil when the source is dead (checkpoint from store)
	graceful bool  // evict live state vs. load from the durable store
	mustMove bool  // leave/fail: the stream cannot stay; join: sticky
	done     chan struct{}
}

// ErrClosed is returned by AddNode and RunStream once Close has begun.
var ErrClosed = errors.New("cluster: closed")

// Cluster coordinates a set of in-process nodes: consistent-hash
// placement, heartbeat membership with deadline failure detection, and
// checkpoint handoff on every ownership change. All public methods are
// safe for concurrent use.
type Cluster struct {
	cfg Config
	tel *telemetry
	reg *obs.Registry
	log *slog.Logger

	mu         sync.Mutex
	ring       *Ring
	members    map[NodeID]*member
	allNodes   map[NodeID]*Node // includes killed/left nodes, for reaping
	placements map[engine.StreamID]*placement
	// epochs is the per-stream ownership epoch high-water mark. It only
	// grows (entries survive orphaning), so a stream that bounces
	// between owners always gets a strictly larger fencing token.
	epochs map[engine.StreamID]uint64
	closed bool

	stop      chan struct{}
	monitorWG sync.WaitGroup
	migWG     sync.WaitGroup

	closeOnce sync.Once
	final     map[NodeID][]engine.StreamResult
}

// New starts a coordinator with no members; AddNode populates it.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	reg := obs.Or(cfg.Obs)
	c := &Cluster{
		cfg:        cfg,
		tel:        newTelemetry(reg),
		reg:        reg,
		log:        cfg.Logger,
		ring:       NewRing(cfg.VirtualNodes),
		members:    map[NodeID]*member{},
		allNodes:   map[NodeID]*Node{},
		placements: map[engine.StreamID]*placement{},
		epochs:     map[engine.StreamID]uint64{},
		stop:       make(chan struct{}),
	}
	if cfg.Checkpoints != nil {
		// Observe every write the store's epoch fence rejects: each one
		// is a stale former owner caught trying to overwrite its
		// successor's state.
		cfg.Checkpoints.OnFenced = func(stream string, writeEpoch, storedEpoch uint64) {
			c.tel.fencedWrites.Inc()
			if c.log != nil {
				c.log.Warn("stale checkpoint write fenced",
					"stream", stream, "write_epoch", writeEpoch, "stored_epoch", storedEpoch)
			}
		}
	}
	c.monitorWG.Add(1)
	go c.monitor()
	return c
}

// AddNode joins a new member: it starts the node's engine and handoff
// listener, admits it to the ring, and rebalances — calibrated streams
// whose ownership moved are handed off to it; uncalibrated ones stay
// put (nothing worth migrating yet).
func (c *Cluster) AddNode(id NodeID) (*Node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: handoff listener: %w", err)
	}
	ecfg := engine.Config{
		Workers:          c.cfg.EngineWorkers,
		Stream:           c.cfg.Stream,
		Obs:              c.reg,
		Logger:           c.log,
		Trace:            c.cfg.Trace,
		TraceNode:        string(id),
		Flight:           c.cfg.Flight,
		Checkpoints:      c.cfg.Checkpoints,
		CheckpointEvery:  c.cfg.CheckpointEvery,
		CheckpointMaxAge: c.cfg.CheckpointMaxAge,
	}
	n := &Node{
		id:     id,
		ln:     ln,
		log:    c.log,
		flight: c.cfg.Flight,
		hbStop: make(chan struct{}),
		wdStop: make(chan struct{}),
		leases: map[engine.StreamID]lease{},
	}
	// Checkpoints this engine writes are stamped with the lease epoch
	// the node holds — expired or not, so a stale owner's writes carry
	// the old epoch and hit the store's fence.
	ecfg.Epoch = func(sid engine.StreamID) (uint64, bool) { return n.leaseEpoch(sid) }
	if c.cfg.OnEvent != nil {
		onEvent := c.cfg.OnEvent
		ecfg.OnEvent = func(sid engine.StreamID, ev core.Event) {
			// Results are gated on a live lease: a partitioned owner can
			// still be chewing through queued batches after its lease
			// lapsed, but nothing it produces may surface — the stream's
			// new owner is its only emitter.
			if !n.leaseLive(sid, time.Now()) {
				c.tel.suppressed.Inc()
				return
			}
			onEvent(id, sid, ev)
		}
	}
	n.eng = engine.New(ecfg)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		n.eng.Close()
		return nil, ErrClosed
	}
	if _, dup := c.allNodes[id]; dup {
		c.mu.Unlock()
		ln.Close()
		n.eng.Close()
		return nil, fmt.Errorf("cluster: node %q already exists", id)
	}
	c.allNodes[id] = n
	c.members[id] = &member{node: n, lastBeat: time.Now()}
	c.ring.Add(id)
	c.tel.nodes.Set(float64(len(c.members)))
	// Rebalance: streams whose owner changed migrate to the joiner.
	// Sticky placement — a migration whose evict finds nothing
	// calibrated aborts and the stream stays where it is.
	for sid, p := range c.placements {
		if p.migrating {
			continue
		}
		if owner, ok := c.ring.Owner(string(sid)); ok && owner != p.node {
			if m, live := c.members[p.node]; live {
				c.startMigrationLocked(migration{
					id: sid, from: p.node, fromNode: m.node,
					graceful: true, mustMove: false,
				})
				c.tel.rebalanced.Inc()
			}
		}
	}
	c.mu.Unlock()

	n.wg.Add(1)
	go n.serve(c.cfg.HandoffAttemptTimeout)
	n.wg.Add(1)
	go c.heartbeat(n)
	n.wg.Add(1)
	go c.leaseWatchdog(n)
	if c.log != nil {
		c.log.Info("node joined", "node", string(id), "addr", n.Addr())
	}
	return n, nil
}

// heartbeat is the per-node beat loop; it stops when the node is
// killed, leaves, or shuts down. A delivered heartbeat does double
// duty: it feeds the failure detector and renews the node's stream
// leases, so liveness-as-seen-by-the-coordinator and
// permission-to-emit always travel together. A node whose heartbeat
// path is partitioned (PartitionHeartbeats) ticks but delivers
// nothing — like a real one-way partition, it neither resets the
// failure deadline nor renews a lease.
func (c *Cluster) heartbeat(n *Node) {
	defer n.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.hbStop:
			return
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			if m, ok := c.members[n.id]; ok && !n.killed.Load() && !n.hbPartitioned.Load() {
				m.lastBeat = time.Now()
				c.tel.heartbeats.Inc()
				c.renewLeasesLocked(n, m.lastBeat.Add(c.cfg.LeaseDuration))
			}
			c.mu.Unlock()
		}
	}
}

// monitor is the failure detector: any member silent past FailAfter is
// declared dead and its streams are migrated off it.
func (c *Cluster) monitor() {
	defer c.monitorWG.Done()
	t := time.NewTicker(monitorPeriod(c.cfg.FailAfter))
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			now := time.Now()
			c.mu.Lock()
			for id, m := range c.members {
				if heartbeatExpired(m.lastBeat, now, c.cfg.FailAfter) {
					c.failLocked(id)
				}
			}
			c.mu.Unlock()
		}
	}
}

// failLocked declares a member dead: out of the ring, out of
// membership, and every stream it owned is migrated — failure-driven,
// so the calibration comes from the durable checkpoint store, not the
// corpse. Callers hold c.mu.
func (c *Cluster) failLocked(id NodeID) {
	if _, ok := c.members[id]; !ok {
		return
	}
	delete(c.members, id)
	c.ring.Remove(id)
	c.tel.nodes.Set(float64(len(c.members)))
	c.tel.failures.Inc()
	if c.log != nil {
		c.log.Warn("node failed heartbeat deadline", "node", string(id),
			"fail_after", c.cfg.FailAfter)
	}
	for sid, p := range c.placements {
		if p.node == id && !p.migrating {
			c.startMigrationLocked(migration{
				id: sid, from: id, graceful: false, mustMove: true,
			})
		}
	}
}

// Kill simulates a node crash: it becomes unreachable but is NOT
// removed from membership — the failure detector must notice the
// silence, which is exactly what the chaos tests exercise.
func (c *Cluster) Kill(id NodeID) bool {
	c.mu.Lock()
	n, ok := c.allNodes[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	n.kill()
	if c.log != nil {
		c.log.Warn("node killed", "node", string(id))
	}
	return true
}

// Leave drains a member gracefully: it is removed from the ring first
// (no new placements), every stream it owns is handed off from live
// engine state, and only then is its engine shut down. Returns the
// node's final per-stream results.
func (c *Cluster) Leave(id NodeID) ([]engine.StreamResult, error) {
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %q is not a live member", id)
	}
	delete(c.members, id)
	c.ring.Remove(id)
	c.tel.nodes.Set(float64(len(c.members)))
	var waits []chan struct{}
	for sid, p := range c.placements {
		if p.node == id && !p.migrating {
			done := make(chan struct{})
			c.startMigrationLocked(migration{
				id: sid, from: id, fromNode: m.node,
				graceful: true, mustMove: true, done: done,
			})
			c.tel.rebalanced.Inc()
			waits = append(waits, done)
		}
	}
	c.mu.Unlock()
	for _, done := range waits {
		<-done
	}
	m.node.stopHeartbeat()
	if c.log != nil {
		c.log.Info("node left", "node", string(id), "migrated", len(waits))
	}
	return m.node.shutdown(), nil
}

// startMigrationLocked marks the placement migrating and launches the
// handoff goroutine. Callers hold c.mu.
func (c *Cluster) startMigrationLocked(m migration) {
	p, ok := c.placements[m.id]
	if !ok || p.migrating {
		if m.done != nil {
			close(m.done)
		}
		return
	}
	p.migrating = true
	c.migWG.Add(1)
	go c.runMigration(m)
}

// runMigration executes one stream handoff:
//
//	checkpoint (evict live / load store) → transfer (retrying, bounded)
//	→ finalize (re-point placement, flush buffered batches)
//
// Every path finalizes — a migration cannot wedge a stream. A handoff
// that cannot produce or deliver a checkpoint before its deadline
// finalizes as fallback_live: the stream re-routes and recalibrates
// from scratch on its new owner.
func (c *Cluster) runMigration(m migration) {
	defer c.migWG.Done()
	start := time.Now()
	deadline := start.Add(c.cfg.HandoffTimeout)
	trig := m.trigger()

	// 1. Obtain the checkpoint.
	var cp supervise.Checkpoint
	haveCP := false
	evictErr := ""
	if m.graceful {
		cp, haveCP = m.fromNode.evict(m.id)
		if !haveCP && !m.mustMove {
			// Join rebalance, nothing calibrated to move: sticky — the
			// stream stays on its current owner.
			c.finalizeSticky(m)
			return
		}
		if !haveCP {
			evictErr = "nothing calibrated to evict"
		}
	} else if c.cfg.Checkpoints != nil {
		loaded, err := c.cfg.Checkpoints.LoadFresh(string(m.id), c.cfg.CheckpointMaxAge)
		if err == nil {
			cp, haveCP = loaded, true
		} else {
			evictErr = err.Error()
			if c.log != nil {
				c.log.Warn("no usable checkpoint for failed node's stream",
					"stream", string(m.id), "err", err)
			}
		}
	} else {
		evictErr = "no durable checkpoint store"
	}

	// Ownership change-over: the donor's lease dies with its state, and
	// the assignment the new owner will receive is minted under a
	// strictly larger epoch (floored by whatever epoch the checkpoint
	// itself carries), so any write the old owner still manages to issue
	// is fenced by the store.
	if m.graceful && haveCP {
		m.fromNode.revokeLease(m.id)
	}
	c.mu.Lock()
	cp.Epoch = c.nextEpochLocked(m.id, cp.Epoch)
	c.mu.Unlock()

	// The migration's spans land in the stream's existing ring: the
	// coordinator shares the tracer with the node engines, and for a
	// dead donor the checkpoint's TraceID recovers the identity the
	// corpse was tracing under.
	tr := c.traceFor(m.id, cp.TraceID)
	tr.Add(trace.Span{Name: trace.SpanEvict, Node: string(m.from), Trigger: trig,
		Start: start, Duration: time.Since(start), Err: evictErr})

	// 2. Resolve the new owner and transfer.
	restored := false
	target, targetAddr, ok := c.resolveOwner(m.id)
	if ok && haveCP {
		transferStart := time.Now()
		attempts := 1
		err := transferCheckpoint(c.cfg.Dial, targetAddr, cp, deadline,
			c.cfg.HandoffAttemptTimeout, c.cfg.HandoffRetryInitial,
			func() { attempts++; c.tel.retries.Inc() })
		sp := trace.Span{Name: trace.SpanTransfer, Node: string(target), Trigger: trig,
			Start: transferStart, Duration: time.Since(transferStart), Count: attempts}
		if err == nil {
			restored = true
		} else {
			sp.Err = err.Error()
			if c.log != nil {
				c.log.Warn("checkpoint handoff failed; stream falls back to live calibration",
					"stream", string(m.id), "target", string(target), "err", err)
			}
		}
		tr.Add(sp)
	}

	// 3. Finalize.
	c.finalize(m, tr, target, ok, restored, haveCP, start)
}

// trigger is the migration's attribution label — the same value the
// cluster_handoff_seconds histogram and the evict/transfer spans carry,
// so latency aggregates and traces never disagree about why a stream
// moved.
func (m migration) trigger() string {
	if m.graceful {
		return "graceful"
	}
	return "failure"
}

// traceFor resolves a stream's trace handle for migration spans,
// preferring the identity carried by its checkpoint (stitching across a
// dead donor) over a fresh local sampling decision.
func (c *Cluster) traceFor(id engine.StreamID, traceID string) *trace.StreamTrace {
	if tid, err := trace.ParseID(traceID); err == nil && tid != 0 {
		return c.cfg.Trace.Adopt(string(id), tid)
	}
	return c.cfg.Trace.Stream(string(id))
}

// resolveOwner maps a stream to its current ring owner and handoff
// address.
func (c *Cluster) resolveOwner(id engine.StreamID) (NodeID, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, ok := c.ring.Owner(string(id))
	if !ok {
		return "", "", false
	}
	m, ok := c.members[owner]
	if !ok {
		return "", "", false
	}
	return owner, m.node.Addr(), true
}

// finalizeSticky aborts a rebalance migration whose stream had nothing
// calibrated to move: it stays on its current owner, which also drains
// any batches buffered while we looked.
func (c *Cluster) finalizeSticky(m migration) {
	c.mu.Lock()
	p := c.placements[m.id]
	p.migrating = false
	pending := p.pending
	p.pending = nil
	node := c.memberNodeLocked(p.node)
	c.pushPendingLocked(node, m.id, pending)
	c.mu.Unlock()
	if m.done != nil {
		close(m.done)
	}
}

// finalize re-points the placement and flushes buffered batches to the
// new owner. If the target died mid-transfer the migration restarts
// failure-driven; if the ring is empty the stream is orphaned.
func (c *Cluster) finalize(m migration, tr *trace.StreamTrace, target NodeID, haveTarget, restored, haveCP bool, start time.Time) {
	c.mu.Lock()
	p := c.placements[m.id]
	if haveTarget {
		if _, stillLive := c.members[target]; !stillLive {
			// Target died while we were transferring. Re-resolve and go
			// again, failure-driven; the deadline clock restarts — this
			// is a new handoff to a new owner.
			p.migrating = false
			c.startMigrationLocked(migration{
				id: m.id, from: target, graceful: false, mustMove: true, done: m.done,
			})
			c.mu.Unlock()
			return
		}
		p.node = target
		p.migrating = false
		// The adopter's lease must exist before any batch reaches it:
		// pushes are gated on a live lease.
		c.grantLeaseLocked(target, m.id, c.epochs[m.id])
		pending := p.pending
		p.pending = nil
		node := c.memberNodeLocked(target)
		c.pushPendingLocked(node, m.id, pending)
	} else {
		// No live owner anywhere: the stream is orphaned until a node
		// joins (a fresh placement forms on its next batch).
		delete(c.placements, m.id)
		c.tel.placed.Set(float64(len(c.placements)))
		c.tel.orphaned.Inc()
	}
	c.mu.Unlock()

	if haveTarget {
		trig := m.trigger()
		if restored {
			c.tel.handoffRestored.Inc()
		} else {
			c.tel.handoffFallback.Inc()
			// A failure-driven handoff with no usable checkpoint lost
			// its calibration with its owner.
			if !m.graceful && !haveCP {
				c.tel.orphaned.Inc()
			}
			tr.Add(trace.Span{Name: trace.SpanFallback, Node: string(target), Trigger: trig,
				Start: start, Duration: time.Since(start)})
			if c.cfg.Flight != nil {
				c.cfg.Flight.Record(trace.Dump{
					Trigger: trace.TriggerHandoffFallback,
					Node:    string(target),
					Stream:  string(m.id),
					Trace:   tr.ID(),
					Detail: fmt.Sprintf("handoff from %s (%s) fell back to live calibration (checkpoint: %v)",
						m.from, trig, haveCP),
					Spans: tr.Spans(),
				})
			}
		}
		c.tel.handoffLatency(trig).Observe(time.Since(start).Seconds())
		if c.log != nil {
			c.log.Info("stream migrated", "stream", string(m.id),
				"from", string(m.from), "to", string(target),
				"trigger", trig, "restored", restored, "took", time.Since(start))
		}
	}
	if m.done != nil {
		close(m.done)
	}
}

// memberNodeLocked returns a live member's node (nil when absent).
// Callers hold c.mu.
func (c *Cluster) memberNodeLocked(id NodeID) *Node {
	if m, ok := c.members[id]; ok {
		return m.node
	}
	return nil
}

// pushPendingLocked drains batches buffered during a migration into
// the (new) owner. Callers hold c.mu; engine pushes are non-blocking.
func (c *Cluster) pushPendingLocked(node *Node, id engine.StreamID, pending [][]core.Reading) {
	for _, batch := range pending {
		if node == nil || !node.push(id, batch) {
			c.tel.droppedBatches.Inc()
			c.tel.droppedReadings.Add(uint64(len(batch)))
		}
	}
}

// Push routes one batch of readings to the stream's owner. A stream
// mid-migration buffers (bounded); a stream with no live owner sheds.
// Returns false when the batch was shed or buffered past the bound.
func (c *Cluster) Push(id engine.StreamID, batch []core.Reading) bool {
	if len(batch) == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.routeLocked(id, batch) {
		c.shedLocked(batch)
		return false
	}
	return true
}

// routeLocked hands batch to the stream's owner, or buffers it while
// the stream migrates. It reports false, without counting a drop, when
// it could do neither: the cluster is closed, no member can own the
// stream, the migration buffer is at its bound, or the owner refused
// (dead but not yet detected, lease not live, or mailbox full).
// Callers hold c.mu.
func (c *Cluster) routeLocked(id engine.StreamID, batch []core.Reading) bool {
	if c.closed {
		return false
	}
	p, ok := c.placements[id]
	if !ok {
		owner, haveOwner := c.ring.Owner(string(id))
		if !haveOwner {
			return false
		}
		p = &placement{node: owner}
		c.placements[id] = p
		c.tel.placed.Set(float64(len(c.placements)))
		// First placement: mint the stream's first epoch and lease the
		// owner before the first batch can reach its engine.
		c.grantLeaseLocked(owner, id, c.nextEpochLocked(id, 0))
	}
	if p.migrating {
		if len(p.pending) >= c.cfg.PendingBatches {
			return false
		}
		p.pending = append(p.pending, batch)
		return true
	}
	// The failure detector re-places a stream whose owner is
	// unreachable.
	node := c.memberNodeLocked(p.node)
	return node != nil && node.push(id, batch)
}

// shedLocked counts one dropped batch. Callers hold c.mu.
func (c *Cluster) shedLocked(batch []core.Reading) {
	c.tel.droppedBatches.Inc()
	c.tel.droppedReadings.Add(uint64(len(batch)))
}

// FlushStream forces a stream's pending stroke and letter out on its
// current owner.
func (c *Cluster) FlushStream(id engine.StreamID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.placements[id]; ok && !p.migrating {
		if node := c.memberNodeLocked(p.node); node != nil {
			node.flush(id)
		}
	}
}

// Owner reports the node currently hosting a stream (its placement if
// one exists, else the ring owner).
func (c *Cluster) Owner(id engine.StreamID) (NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.placements[id]; ok {
		return p.node, true
	}
	return c.ring.Owner(string(id))
}

// Members returns the live membership, sorted.
func (c *Cluster) Members() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// Backoff bounds for RunStream's retry of a refused push.
const (
	pushRetryMin = 100 * time.Microsecond
	pushRetryMax = 5 * time.Millisecond
)

// RunStream drains a report source into the cluster until the stream
// ends, then flushes it. Blocks; run one goroutine per source.
//
// Each report frame is converted once. A push the cluster refuses (the
// owner's mailbox is full, the migration buffer is at its bound, or
// the stream has no live owner yet) is retried with a short doubling
// backoff instead of being shed, so a source that outruns its engine is
// slowed to the engine's pace rather than losing readings; the owner's
// engine still counts each refused attempt in engine_overflow_total.
// The coordinator lock is never held while waiting. Once Close has
// begun, the batch in hand is counted as dropped and RunStream returns
// ErrClosed.
func (c *Cluster) RunStream(id engine.StreamID, src live.ReportSource) error {
	for {
		reports, err := src.NextReports()
		if errors.Is(err, llrp.ErrStreamEnded) {
			break
		}
		if err != nil {
			return err
		}
		if len(reports) == 0 {
			continue
		}
		batch := make([]core.Reading, 0, len(reports))
		for _, rep := range reports {
			batch = append(batch, live.ReadingFromReport(rep))
		}
		for backoff := pushRetryMin; ; backoff = min(2*backoff, pushRetryMax) {
			c.mu.Lock()
			ok := c.routeLocked(id, batch)
			c.mu.Unlock()
			if ok {
				break
			}
			select {
			case <-c.stop:
				c.mu.Lock()
				c.shedLocked(batch)
				c.mu.Unlock()
				return ErrClosed
			case <-time.After(backoff):
			}
		}
	}
	c.FlushStream(id)
	return nil
}

// Close stops the failure detector, waits out in-flight migrations,
// and drains every node (including killed ones — an in-process
// "crash" still owns goroutines that need reaping). Idempotent: the
// second call returns the first call's results.
func (c *Cluster) Close() map[NodeID][]engine.StreamResult {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.stop)
		c.monitorWG.Wait()
		c.migWG.Wait()
		c.mu.Lock()
		nodes := make([]*Node, 0, len(c.allNodes))
		for _, n := range c.allNodes {
			nodes = append(nodes, n)
		}
		c.mu.Unlock()
		c.final = make(map[NodeID][]engine.StreamResult, len(nodes))
		for _, n := range nodes {
			c.final[n.id] = n.shutdown()
		}
	})
	return c.final
}
