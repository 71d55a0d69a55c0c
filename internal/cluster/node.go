package cluster

import (
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// Node is one cluster member: a sharded recognition engine plus a TCP
// handoff listener that adopts migrated streams, plus the heartbeat
// loop that keeps the coordinator's failure detector fed. Nodes are
// created through Cluster.AddNode, which wires the shared checkpoint
// store, event fan-out, and membership.
type Node struct {
	id     NodeID
	eng    *engine.Engine
	ln     net.Listener
	log    *slog.Logger
	flight *trace.Flight

	// killed simulates a crash: the node stops heartbeating, stops
	// accepting handoffs, and rejects pushes — unreachable to the rest
	// of the cluster even though it shares the process.
	killed atomic.Bool
	hbStop chan struct{}
	hbOnce sync.Once
	wg     sync.WaitGroup

	// leases is the node's view of the ownership leases it holds, keyed
	// by stream: granted at placement, renewed by delivered heartbeats,
	// reaped by the lease watchdog (see lease.go).
	leaseMu sync.Mutex
	leases  map[engine.StreamID]lease
	// hbPartitioned simulates an asymmetric partition: the node's
	// heartbeats stop reaching the coordinator while every data path
	// stays up (Cluster.PartitionHeartbeats).
	hbPartitioned atomic.Bool
	// demoteSuspended pauses the watchdog's self-demotion — the chaos
	// hook for a zombie that cannot run its own containment
	// (SuspendDemotion).
	demoteSuspended atomic.Bool
	wdStop          chan struct{}
	wdOnce          sync.Once

	closeOnce sync.Once
	results   []engine.StreamResult
}

// ID returns the node's name.
func (n *Node) ID() NodeID { return n.id }

// Addr returns the handoff listener address peers transfer checkpoints
// to.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Engine exposes the node's engine (benchmarks and tests).
func (n *Node) Engine() *engine.Engine { return n.eng }

// push enqueues a batch on the node's engine; a refused batch stays
// with the caller. A killed node is unreachable, and a node without a
// live lease for the stream refuses intake — accepting batches after
// lease expiry would let a demoted owner quietly recreate the evicted
// state from its own backlog.
func (n *Node) push(id engine.StreamID, b *core.ReadingBatch) bool {
	if n.killed.Load() || !n.leaseLive(id, time.Now()) {
		return false
	}
	return n.eng.PushBatch(id, b)
}

// evict pulls a stream's checkpoint out of the node's engine for
// migration. Fails on a killed node — a crashed process cannot be
// asked for its live state; the coordinator falls back to the durable
// store.
func (n *Node) evict(id engine.StreamID) (supervise.Checkpoint, bool) {
	if n.killed.Load() {
		return supervise.Checkpoint{}, false
	}
	return n.eng.EvictStream(id)
}

// flush enqueues a flush of the stream's pending stroke and letter
// without blocking. A killed node, or a full mailbox, refuses it; a
// refused flush stays with the caller.
func (n *Node) flush(id engine.StreamID) bool {
	return !n.killed.Load() && n.eng.TryFlushStream(id)
}

// stopHeartbeat halts the heartbeat loop (idempotent). Graceful leave
// uses it alone; kill and shutdown fold it in.
func (n *Node) stopHeartbeat() {
	n.hbOnce.Do(func() { close(n.hbStop) })
}

// kill makes the node unreachable without draining it: heartbeats
// stop, the handoff listener closes, pushes bounce. The engine's
// goroutines keep running (an in-process "crash" cannot reclaim them)
// until shutdown reaps them — but nothing routes to them anymore.
func (n *Node) kill() {
	if n.killed.CompareAndSwap(false, true) {
		n.stopHeartbeat()
		n.ln.Close()
	}
}

// shutdown closes the listener and drains the engine, once. The
// engine's Close is idempotent, so a node that was killed and later
// reaped drains cleanly. The lease watchdog stops here — not at kill:
// a killed node's engine keeps running, and so would a real
// partitioned process's watchdog.
func (n *Node) shutdown() []engine.StreamResult {
	n.closeOnce.Do(func() {
		n.stopHeartbeat()
		n.stopWatchdog()
		n.ln.Close()
		n.results = n.eng.Close()
		n.wg.Wait()
	})
	return n.results
}

// serve accepts handoff connections until the listener closes.
func (n *Node) serve(ioTimeout time.Duration) {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleHandoff(conn, ioTimeout)
		}()
	}
}

// Handoff wire protocol: the sender writes one length-prefixed
// checkpoint frame (supervise.WriteCheckpoint) and reads a 2-byte
// status — "OK" once the stream is adopted, "ER" otherwise. The
// ack-after-adopt ordering makes the transfer idempotent to retry: a
// sender that never saw "OK" retries, and a duplicate adopt fails with
// ErrStreamExists, which the receiver reports as success ("OK") since
// the stream is already owned here.
const (
	handoffOK  = "OK"
	handoffErr = "ER"
)

func (n *Node) handleHandoff(conn net.Conn, ioTimeout time.Duration) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	status := handoffErr
	defer func() { conn.Write([]byte(status)) }()
	cp, err := supervise.ReadCheckpoint(conn)
	if err != nil {
		// A frame that failed its integrity envelope is a flight-recorder
		// anomaly: the link (or a fault injector) corrupted a handoff.
		n.flight.Record(trace.Dump{
			Trigger: trace.TriggerCorruptCheckpoint,
			Node:    string(n.id),
			Detail:  err.Error(),
		})
		if n.log != nil {
			n.log.Warn("handoff frame rejected", "node", string(n.id), "err", err)
		}
		return
	}
	if n.killed.Load() {
		return
	}
	switch err := n.eng.AdoptStream(engine.StreamID(cp.Stream), cp); {
	case err == nil:
		status = handoffOK
		if n.log != nil {
			n.log.Info("stream adopted via handoff",
				"node", string(n.id), "stream", cp.Stream,
				"frame_cursor", cp.FrameCursor)
		}
	case errors.Is(err, engine.ErrStreamExists):
		// A retried transfer whose earlier attempt adopted but lost the
		// ack: the stream is here, so the handoff succeeded.
		status = handoffOK
	default:
		if n.log != nil {
			n.log.Warn("handoff adoption failed",
				"node", string(n.id), "stream", cp.Stream, "err", err)
		}
	}
}
