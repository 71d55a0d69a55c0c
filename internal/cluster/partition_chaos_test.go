package cluster_test

// Partition chaos for the split-brain defenses. A symmetric crash
// (Kill) is the easy case — the old owner is gone. These tests cover
// the hard one: an ASYMMETRIC partition where the owner keeps running,
// keeps its engine state, and can still reach the shared checkpoint
// store, while the coordinator hears nothing from it. The lease
// protocol must guarantee that no two nodes are ever active writers:
// either the owner self-demotes before reassignment (lease <
// FailAfter), or — if it cannot even run its own watchdog — its
// results are suppressed by the expired lease and its checkpoint
// writes are fenced by the epoch the store remembers.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// ownerTape records which node emitted each letter, in arrival order —
// the evidence for "no two lease-holding emitters at the same instant":
// once the adopter emits, the old owner must never emit again.
type ownerTape struct {
	mu     sync.Mutex
	events map[engine.StreamID][]ownerEmit
}

type ownerEmit struct {
	node   cluster.NodeID
	letter string
}

func newOwnerTape() *ownerTape {
	return &ownerTape{events: map[engine.StreamID][]ownerEmit{}}
}

func (ot *ownerTape) onEvent(n cluster.NodeID, id engine.StreamID, ev core.Event) {
	if ev.Kind == core.LetterDeduced {
		ot.mu.Lock()
		ot.events[id] = append(ot.events[id], ownerEmit{node: n, letter: string(ev.Letter)})
		ot.mu.Unlock()
	}
}

func (ot *ownerTape) get(id engine.StreamID) []ownerEmit {
	ot.mu.Lock()
	defer ot.mu.Unlock()
	return append([]ownerEmit(nil), ot.events[id]...)
}

// assertSingleWriter fails if the donor emitted anything after the
// adopter's first letter, or if either side's letters differ from the
// expected split.
func assertSingleWriter(t *testing.T, seq []ownerEmit, donor, adopter cluster.NodeID, wantDonor, wantAdopter string) {
	t.Helper()
	var fromDonor, fromAdopter string
	lastDonor, firstAdopter := -1, len(seq)
	for i, e := range seq {
		switch e.node {
		case donor:
			fromDonor += e.letter
			lastDonor = i
		case adopter:
			fromAdopter += e.letter
			if i < firstAdopter {
				firstAdopter = i
			}
		default:
			t.Errorf("letter %q emitted by unexpected node %q", e.letter, e.node)
		}
	}
	if fromDonor != wantDonor {
		t.Errorf("donor %s emitted %q, want %q", donor, fromDonor, wantDonor)
	}
	if fromAdopter != wantAdopter {
		t.Errorf("adopter %s emitted %q, want %q", adopter, fromAdopter, wantAdopter)
	}
	if lastDonor > firstAdopter {
		t.Errorf("two active emitters: donor %s emitted at seq %d after adopter %s started at %d",
			donor, lastDonor, adopter, firstAdopter)
	}
}

// hasDump reports whether the flight log holds a dump with the given
// trigger for the given stream.
func hasDump(t *testing.T, fl *trace.Flight, trigger string, stream engine.StreamID) bool {
	t.Helper()
	dumps, err := trace.ReadDumps(fl.Path())
	if err != nil {
		t.Fatalf("reading flight log: %v", err)
	}
	for _, d := range dumps {
		if d.Trigger == trigger && d.Stream == string(stream) {
			return true
		}
	}
	return false
}

// TestClusterZombieOwnerFencedOut is the pathological case: the owner's
// heartbeat path is severed AND its lease watchdog is suspended
// (SuspendDemotion — a GC-stalled zombie that cannot run its own
// containment). The node keeps its engine state, keeps writing periodic
// checkpoints, and keeps chewing batches fed to it directly. The
// passive defenses must hold on their own:
//
//   - its checkpoint writes carry the old epoch and are fenced once the
//     adopter saves under the new one (cluster_fenced_writes_total),
//   - its recognition results are suppressed by the expired lease
//     (cluster_results_suppressed_total) — nothing it produces surfaces,
//   - the adopter resumes from the newest non-fenced checkpoint with
//     zero recalibration (prelude-stripped phase 2 recognized).
func TestClusterZombieOwnerFencedOut(t *testing.T) {
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fl, err := trace.OpenFlight(flightDir(t), reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	tape := newLetterTape()
	owners := newOwnerTape()
	c := cluster.New(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         300 * time.Millisecond,
		LeaseDuration:     150 * time.Millisecond,
		LeaseCheckEvery:   20 * time.Millisecond,
		HandoffTimeout:    5 * time.Second,
		EngineWorkers:     1,
		Checkpoints:       store,
		CheckpointEvery:   40 * time.Millisecond,
		OnEvent: func(n cluster.NodeID, id engine.StreamID, ev core.Event) {
			tape.onEvent(n, id, ev)
			owners.onEvent(n, id, ev)
		},
		Obs:    reg,
		Flight: fl,
	})
	defer c.Close()
	nodes := map[cluster.NodeID]*cluster.Node{}
	for _, nid := range []cluster.NodeID{"node-0", "node-1"} {
		n, err := c.AddNode(nid)
		if err != nil {
			t.Fatal(err)
		}
		nodes[nid] = n
	}

	const id = engine.StreamID("plate-z")
	phase1, max1 := synthBatches(t, 80, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-1 letters`, func() bool { return tape.get(id) == "IT" })
	waitFor(t, 15*time.Second, "calibrated checkpoint on disk", func() bool {
		cp, err := store.Load(string(id))
		return err == nil && cp.Epoch >= 1 && len(cp.Calibration.MeanPhase) > 0
	})

	victim, ok := c.Owner(id)
	if !ok {
		t.Fatal("no owner for plate-z")
	}
	zombie := nodes[victim]
	zombie.SuspendDemotion(true)
	if !c.PartitionHeartbeats(victim, true) {
		t.Fatalf("PartitionHeartbeats(%s) found no node", victim)
	}

	waitFor(t, 15*time.Second, "failure detection and restored handoff", func() bool {
		s := reg.Snapshot()
		return s.Value("cluster_node_failures_total") >= 1 &&
			s.Value("cluster_handoffs_total", obs.L("outcome", "restored")) >= 1
	})
	adopter, ok := c.Owner(id)
	if !ok || adopter == victim {
		t.Fatalf("owner after partition = %q, %v; want a node other than %q", adopter, ok, victim)
	}

	// The zombie never demoted: its engine still holds the stream and
	// keeps saving under the old epoch. The adopter's first save under
	// the new epoch turns every subsequent zombie write into a fenced
	// rejection — on the store counter AND the zombie engine's own.
	waitFor(t, 15*time.Second, "zombie checkpoint write fenced", func() bool {
		s := reg.Snapshot()
		return s.Value("cluster_fenced_writes_total") >= 1 &&
			s.Value("engine_checkpoints_fenced_total") >= 1
	})

	// Feed the zombie's engine directly — the in-process stand-in for
	// clients still connected to the partitioned side. It recognizes the
	// letters (live state, live calibration) but the expired lease gates
	// every result: nothing surfaces, the tape stays clean.
	ghost, _ := synthLetters(t, 80, "LC", max1+3*time.Second)
	for _, b := range ghost {
		pushEngine(zombie.Engine(), id, b)
	}
	zombie.Engine().FlushStream(id)
	waitFor(t, 15*time.Second, "zombie results suppressed", func() bool {
		return reg.Snapshot().Value("cluster_results_suppressed_total") >= 1
	})
	if got := tape.get(id); got != "IT" {
		t.Fatalf("zombie letters leaked past the lease gate: tape = %q, want %q", got, "IT")
	}

	// The adopter resumed from the newest non-fenced checkpoint: the
	// prelude-stripped phase 2 can only be recognized with handed-off
	// calibration.
	phase2, _ := synthLetters(t, 80, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-2 letters on the adopter`, func() bool { return tape.get(id) == "ITLC" })

	s := reg.Snapshot()
	if v := s.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("cluster_handoffs_total{outcome=fallback_live} = %v, want 0 (handoff must restore, not recalibrate)", v)
	}
	if v := s.Value("engine_streams_adopted_total"); v < 1 {
		t.Errorf("engine_streams_adopted_total = %v, want >= 1", v)
	}
	if v := s.Value("cluster_ownership_epoch", obs.L("stream", string(id))); v < 2 {
		t.Errorf("cluster_ownership_epoch{stream=%s} = %v, want >= 2 after reassignment", id, v)
	}
	assertSingleWriter(t, owners.get(id), victim, adopter, "IT", "LC")
	if !hasDump(t, fl, trace.TriggerFencedWrite, id) {
		t.Error("no fenced_write flight dump recorded for the zombie's rejected save")
	}
}

// TestClusterAsymmetricPartitionSelfDemotes is the well-behaved owner
// under the same partition: no suspension, so the lease watchdog runs.
// Because LeaseDuration (200ms) is strictly shorter than FailAfter
// (600ms), the owner must have already self-demoted — eviction plus one
// final fenced-safe save — by the time the failure detector declares it
// dead, and the adopter resumes from that demotion checkpoint with zero
// recalibration.
func TestClusterAsymmetricPartitionSelfDemotes(t *testing.T) {
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fl, err := trace.OpenFlight(flightDir(t), reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	tape := newLetterTape()
	owners := newOwnerTape()
	c := cluster.New(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         600 * time.Millisecond,
		LeaseDuration:     200 * time.Millisecond,
		LeaseCheckEvery:   25 * time.Millisecond,
		HandoffTimeout:    5 * time.Second,
		EngineWorkers:     1,
		Checkpoints:       store,
		CheckpointEvery:   50 * time.Millisecond,
		OnEvent: func(n cluster.NodeID, id engine.StreamID, ev core.Event) {
			tape.onEvent(n, id, ev)
			owners.onEvent(n, id, ev)
		},
		Obs:    reg,
		Flight: fl,
	})
	defer c.Close()
	for _, nid := range []cluster.NodeID{"node-0", "node-1"} {
		if _, err := c.AddNode(nid); err != nil {
			t.Fatal(err)
		}
	}

	const id = engine.StreamID("plate-a")
	phase1, max1 := synthBatches(t, 81, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-1 letters`, func() bool { return tape.get(id) == "IT" })

	victim, ok := c.Owner(id)
	if !ok {
		t.Fatal("no owner for plate-a")
	}
	if !c.PartitionHeartbeats(victim, true) {
		t.Fatalf("PartitionHeartbeats(%s) found no node", victim)
	}

	// The ordering proof: at the instant the failure detector first
	// fires (>= 600ms of silence), the owner's self-demotion (lease
	// expiry <= ~250ms) must already be on the books.
	waitFor(t, 15*time.Second, "failure detection", func() bool {
		return reg.Snapshot().Value("cluster_node_failures_total") >= 1
	})
	if v := reg.Snapshot().Value("cluster_lease_expirations_total"); v < 1 {
		t.Fatalf("node declared dead before its lease expired: cluster_lease_expirations_total = %v — demotion must strictly precede reassignment", v)
	}

	waitFor(t, 15*time.Second, "restored handoff", func() bool {
		return reg.Snapshot().Value("cluster_handoffs_total", obs.L("outcome", "restored")) >= 1
	})
	adopter, ok := c.Owner(id)
	if !ok || adopter == victim {
		t.Fatalf("owner after partition = %q, %v; want a node other than %q", adopter, ok, victim)
	}

	phase2, _ := synthLetters(t, 81, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-2 letters on the adopter`, func() bool { return tape.get(id) == "ITLC" })

	s := reg.Snapshot()
	if v := s.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("cluster_handoffs_total{outcome=fallback_live} = %v, want 0 (demotion checkpoint must carry the calibration)", v)
	}
	// A clean self-demotion stops the writer before it can collide: the
	// old owner's state is gone by the time the adopter saves, so the
	// fence never has to fire.
	if v := s.Value("cluster_fenced_writes_total"); v != 0 {
		t.Errorf("cluster_fenced_writes_total = %v, want 0 — demotion should have stopped the writer cleanly", v)
	}
	if v := s.Value("cluster_results_suppressed_total"); v != 0 {
		t.Errorf("cluster_results_suppressed_total = %v, want 0 — nothing should have needed suppression", v)
	}
	assertSingleWriter(t, owners.get(id), victim, adopter, "IT", "LC")
	if !hasDump(t, fl, trace.TriggerLeaseExpired, id) {
		t.Error("no lease_expired flight dump recorded for the self-demotion")
	}
}

// TestClusterCoordinatorRestartEpochContinuity restarts the whole
// coordination layer against the same durable store. The new
// coordinator has no in-memory epoch state; its first mint for the
// stream must still come out strictly above everything the previous
// incarnation stamped into the store — otherwise a survivor of the old
// cluster could fence out the new owner.
func TestClusterCoordinatorRestartEpochContinuity(t *testing.T) {
	dir := t.TempDir()
	store1, err := supervise.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	tape1 := newLetterTape()
	cfg := cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         150 * time.Millisecond,
		HandoffTimeout:    5 * time.Second,
		EngineWorkers:     1,
		CheckpointEvery:   40 * time.Millisecond,
	}
	cfg1 := cfg
	cfg1.Checkpoints = store1
	cfg1.Obs = reg1
	cfg1.OnEvent = tape1.onEvent
	c1 := cluster.New(cfg1)
	if _, err := c1.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-r")
	phase1, max1 := synthBatches(t, 82, "IT", 0)
	pushAll(c1, id, phase1)
	c1.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-1 letters`, func() bool { return tape1.get(id) == "IT" })
	c1.Close()

	cp, err := store1.Load(string(id))
	if err != nil {
		t.Fatalf("no checkpoint after first incarnation: %v", err)
	}
	firstEpoch := cp.Epoch
	if firstEpoch < 1 {
		t.Fatalf("first incarnation saved epoch %d, want >= 1", firstEpoch)
	}

	// Second incarnation: fresh coordinator, fresh registry, same disk.
	store2, err := supervise.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	tape2 := newLetterTape()
	cfg2 := cfg
	cfg2.Checkpoints = store2
	cfg2.Obs = reg2
	cfg2.OnEvent = tape2.onEvent
	c2 := cluster.New(cfg2)
	defer c2.Close()
	if _, err := c2.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	// Prelude-stripped: only a checkpoint restore can recognize this.
	phase2, _ := synthLetters(t, 82, "LC", max1+3*time.Second)
	pushAll(c2, id, phase2)
	c2.FlushStream(id)
	waitFor(t, 15*time.Second, `letters after coordinator restart`, func() bool { return tape2.get(id) == "LC" })

	s := reg2.Snapshot()
	if v := s.Value("checkpoint_restore_total", obs.L("outcome", "restored")); v != 1 {
		t.Errorf("checkpoint_restore_total{outcome=restored} = %v, want 1 (zero recalibration across the restart)", v)
	}
	newEpoch := s.Value("cluster_ownership_epoch", obs.L("stream", string(id)))
	if newEpoch <= float64(firstEpoch) {
		t.Errorf("restarted coordinator minted epoch %v, want > %d (continuity from the stored checkpoint)", newEpoch, firstEpoch)
	}

	// Once the new owner has saved, a write stamped with the previous
	// incarnation's epoch — a survivor of the old cluster — is fenced.
	waitFor(t, 15*time.Second, "save under the new epoch", func() bool {
		cp, err := store2.Load(string(id))
		return err == nil && cp.Epoch > firstEpoch
	})
	stale := supervise.Checkpoint{Stream: string(id), Epoch: firstEpoch}
	if err := store2.Save(stale); !errors.Is(err, supervise.ErrFenced) {
		t.Fatalf("stale-epoch save error = %v, want ErrFenced", err)
	}
	if v := reg2.Snapshot().Value("cluster_fenced_writes_total"); v < 1 {
		t.Errorf("cluster_fenced_writes_total = %v, want >= 1 after the fenced save", v)
	}
}

// TestClusterHandoffOneWayAckPartition runs a graceful handoff through
// a one-way partition on the transfer link: the checkpoint frame
// reaches the adopter (writes pass) but the "OK" ack is discarded on
// the way back (faultnet.DropReads). The sender must time the attempt
// out and retry on a clean connection; the receiver, which already
// adopted, answers the duplicate with OK via ErrStreamExists — exactly
// one adoption, handoff restored, no fallback.
func TestClusterHandoffOneWayAckPartition(t *testing.T) {
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tape := newLetterTape()

	var mu sync.Mutex
	var conns, ackDrops int
	dial := func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, time.Second)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		first := conns == 0
		conns++
		mu.Unlock()
		if first {
			// Only the inbound (ack) direction is severed; the frame
			// still goes through and the server still adopts.
			return faultnet.Wrap(conn, faultnet.Config{
				DropReads: true,
				Observer: func(kind string) {
					if kind == faultnet.FaultDropRead {
						mu.Lock()
						ackDrops++
						mu.Unlock()
					}
				},
			}, nil), nil
		}
		return conn, nil
	}

	c := cluster.New(cluster.Config{
		HeartbeatInterval:     25 * time.Millisecond,
		FailAfter:             150 * time.Millisecond,
		HandoffTimeout:        10 * time.Second,
		HandoffAttemptTimeout: 150 * time.Millisecond,
		HandoffRetryInitial:   5 * time.Millisecond,
		EngineWorkers:         1,
		Checkpoints:           store,
		CheckpointEvery:       100 * time.Millisecond,
		OnEvent:               tape.onEvent,
		Obs:                   reg,
		Dial:                  dial,
	})
	defer c.Close()
	for _, nid := range []cluster.NodeID{"node-0", "node-1"} {
		if _, err := c.AddNode(nid); err != nil {
			t.Fatal(err)
		}
	}

	const id = engine.StreamID("plate-ow")
	phase1, max1 := synthBatches(t, 83, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-1 letters`, func() bool { return tape.get(id) == "IT" })

	victim, ok := c.Owner(id)
	if !ok {
		t.Fatal("no owner for plate-ow")
	}
	if _, err := c.Leave(victim); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if v := s.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != 1 {
		t.Fatalf("cluster_handoffs_total{outcome=restored} = %v, want 1", v)
	}
	if v := s.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Fatalf("cluster_handoffs_total{outcome=fallback_live} = %v, want 0", v)
	}
	if v := s.Value("cluster_handoff_retries_total"); v < 1 {
		t.Fatalf("cluster_handoff_retries_total = %v, want >= 1 (the lost ack must force a retry)", v)
	}
	if v := s.Value("engine_streams_adopted_total"); v != 1 {
		t.Errorf("engine_streams_adopted_total = %v, want exactly 1 (duplicate transfer deduped via ErrStreamExists)", v)
	}
	mu.Lock()
	gotConns, gotDrops := conns, ackDrops
	mu.Unlock()
	if gotConns < 2 {
		t.Errorf("transfer used %d connections, want >= 2 (retry after the one-way partition)", gotConns)
	}
	if gotDrops < 1 {
		t.Errorf("faultnet observed %d dropped reads, want >= 1 (the ack had to be eaten)", gotDrops)
	}

	phase2, _ := synthLetters(t, 83, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 15*time.Second, `phase-2 letters on the adopter`, func() bool { return tape.get(id) == "ITLC" })
}
