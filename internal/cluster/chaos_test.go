package cluster_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/obs"
	"rfipad/internal/supervise"
)

// TestClusterNodeKillMigratesViaCheckpoint is the headline chaos run:
// several nodes, several streams mid-word, one node killed without
// warning. The failure detector must notice the silence, every stream
// the corpse owned must migrate via its durable checkpoint, and the
// second half of each word must be recognized on the new owners with
// zero recalibrations — enforced two ways: the phase-2 captures carry
// no static prelude (a fallback stream physically cannot calibrate),
// and the handoff outcome counters must show restored-only.
func TestClusterNodeKillMigratesViaCheckpoint(t *testing.T) {
	store, err := supervise.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tape := newLetterTape()
	c := cluster.New(cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         150 * time.Millisecond,
		HandoffTimeout:    5 * time.Second,
		EngineWorkers:     1,
		Checkpoints:       store,
		CheckpointEvery:   100 * time.Millisecond,
		OnEvent:           tape.onEvent,
		Obs:               reg,
	})
	defer c.Close()
	nodes := []cluster.NodeID{"node-0", "node-1", "node-2"}
	for _, id := range nodes {
		if _, err := c.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: four streams each write "IT" and calibrate; every
	// calibration lands in the shared store.
	streams := []engine.StreamID{"plate-0", "plate-1", "plate-2", "plate-3"}
	phase2Shift := map[engine.StreamID]time.Duration{}
	for i, id := range streams {
		batches, maxTS := synthBatches(t, 80+int64(i), "IT", 0)
		pushAll(c, id, batches)
		c.FlushStream(id)
		phase2Shift[id] = maxTS + 3*time.Second
	}
	waitFor(t, 30*time.Second, `every stream at "IT"`, func() bool {
		for _, id := range streams {
			if tape.get(id) != "IT" {
				return false
			}
		}
		return true
	})

	// Kill the owner of plate-0 — no drain, no goodbye. Count the
	// streams that die with it.
	victim, ok := c.Owner(streams[0])
	if !ok {
		t.Fatal("no owner for plate-0")
	}
	lost := 0
	for _, id := range streams {
		if owner, _ := c.Owner(id); owner == victim {
			lost++
		}
	}
	killed := time.Now()
	if !c.Kill(victim) {
		t.Fatalf("Kill(%s) found no node", victim)
	}
	t.Logf("killed %s owning %d of %d streams", victim, lost, len(streams))

	// The failure detector must declare it dead and hand off every one
	// of its streams from the checkpoint store.
	waitFor(t, 15*time.Second, "failure detection and checkpoint handoffs", func() bool {
		snap := reg.Snapshot()
		return snap.Value("cluster_node_failures_total") >= 1 &&
			snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")) >= float64(lost)
	})
	// Failover timing, logged and never asserted: detection plus
	// handoff, end to end, and the handoff latency alone.
	handoff, _ := reg.Snapshot().Get("cluster_handoff_seconds", obs.L("trigger", "failure"))
	t.Logf("kill to recovered %v; failure handoff p50 %.2f ms, p95 %.2f ms",
		time.Since(killed).Round(time.Millisecond), handoff.Quantile(0.50)*1e3, handoff.Quantile(0.95)*1e3)
	for _, id := range streams {
		owner, ok := c.Owner(id)
		if !ok || owner == victim {
			t.Fatalf("stream %s still placed on dead node %s", id, victim)
		}
	}

	// Phase 2: the same writers continue with "LC" — prelude stripped,
	// so only a stream whose calibration survived the migration can
	// recognize anything at all.
	for i, id := range streams {
		batches, _ := synthLetters(t, 80+int64(i), "LC", phase2Shift[id])
		pushAll(c, id, batches)
		c.FlushStream(id)
	}
	waitFor(t, 30*time.Second, `every stream at "ITLC"`, func() bool {
		for _, id := range streams {
			if tape.get(id) != "ITLC" {
				return false
			}
		}
		return true
	})

	snap := reg.Snapshot()
	if v := snap.Value("cluster_node_failures_total"); v != 1 {
		t.Errorf("cluster_node_failures_total = %v, want 1", v)
	}
	if v := snap.Value("cluster_nodes"); v != float64(len(nodes)-1) {
		t.Errorf("cluster_nodes = %v, want %d", v, len(nodes)-1)
	}
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != float64(lost) {
		t.Errorf("restored handoffs = %v, want %d", v, lost)
	}
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("fallback_live handoffs = %v, want 0 (zero recalibrations)", v)
	}
	if v := snap.Value("cluster_streams_orphaned_total"); v != 0 {
		t.Errorf("cluster_streams_orphaned_total = %v, want 0", v)
	}
	if v := snap.Value("engine_streams_adopted_total"); v != float64(lost) {
		t.Errorf("engine_streams_adopted_total = %v, want %d", v, lost)
	}
	if n := snap.HistCount("cluster_handoff_seconds", obs.L("trigger", "failure")); n != uint64(lost) {
		t.Errorf("cluster_handoff_seconds{trigger=failure} count = %d, want %d", n, lost)
	}
	if n := snap.HistCount("cluster_handoff_seconds", obs.L("trigger", "graceful")); n != 0 {
		t.Errorf("cluster_handoff_seconds{trigger=graceful} count = %d, want 0 (kill is failure-driven)", n)
	}
}

// TestClusterHandoffRetriesThroughFaults drives a handoff through a
// hostile link: the first dial is refused outright (partition), the
// second connection is cut mid-frame by faultnet, the third crawls
// through injected latency — and the transfer must still land as
// restored, with the retries visible on the counter.
func TestClusterHandoffRetriesThroughFaults(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	var mu sync.Mutex
	dials := 0
	dial := func(network, addr string) (net.Conn, error) {
		mu.Lock()
		n := dials
		dials++
		mu.Unlock()
		switch n {
		case 0:
			// Partitioned: the SYN goes nowhere.
			return nil, errors.New("injected partition")
		case 1:
			// Link drops mid-frame: the 4-byte length prefix gets out,
			// the checkpoint payload is cut.
			conn, err := net.DialTimeout(network, addr, time.Second)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(conn, faultnet.Config{Seed: 1, DropAfterBytes: 64}, nil), nil
		default:
			// Degraded but functional: every write delayed.
			conn, err := net.DialTimeout(network, addr, time.Second)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(conn, faultnet.Config{Seed: 2, Latency: 2 * time.Millisecond}, nil), nil
		}
	}
	c := cluster.New(cluster.Config{
		HeartbeatInterval:   25 * time.Millisecond,
		FailAfter:           150 * time.Millisecond,
		HandoffTimeout:      10 * time.Second,
		HandoffRetryInitial: 5 * time.Millisecond,
		EngineWorkers:       1,
		Dial:                dial,
		OnEvent:             tape.onEvent,
		Obs:                 reg,
	})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-0")
	phase1, max1 := synthBatches(t, 90, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-1 letters`, func() bool { return tape.get(id) == "IT" })

	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("node-0"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != 1 {
		t.Fatalf("restored handoffs = %v, want 1", v)
	}
	if v := snap.Value("cluster_handoff_retries_total"); v < 2 {
		t.Errorf("cluster_handoff_retries_total = %v, want >= 2", v)
	}
	mu.Lock()
	if dials < 3 {
		t.Errorf("dial count = %d, want >= 3", dials)
	}
	mu.Unlock()

	// The migrated stream keeps recognizing — prelude-free phase 2.
	phase2, _ := synthLetters(t, 90, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-2 letters`, func() bool { return tape.get(id) == "ITLC" })
}

// TestClusterHandoffDeadlineFallsBackToLive pins the non-wedge
// guarantee: when the transfer target is unreachable for the whole
// handoff budget and no durable store exists, the migration must give
// up at the deadline, count fallback_live, and leave the stream routed
// to its new owner — where it recalibrates from scratch and keeps
// working, instead of hanging forever half-migrated.
func TestClusterHandoffDeadlineFallsBackToLive(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	c := cluster.New(cluster.Config{
		HeartbeatInterval:     25 * time.Millisecond,
		FailAfter:             150 * time.Millisecond,
		HandoffTimeout:        300 * time.Millisecond,
		HandoffAttemptTimeout: 50 * time.Millisecond,
		HandoffRetryInitial:   10 * time.Millisecond,
		EngineWorkers:         1,
		Dial: func(network, addr string) (net.Conn, error) {
			return nil, errors.New("injected total partition")
		},
		OnEvent: tape.onEvent,
		Obs:     reg,
	})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-0")
	phase1, _ := synthBatches(t, 92, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-1 letters`, func() bool { return tape.get(id) == "IT" })

	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Leave("node-0"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("Leave blocked %v; the handoff deadline should bound it", took)
	}

	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 1 {
		t.Fatalf("fallback_live handoffs = %v, want 1", v)
	}
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != 0 {
		t.Errorf("restored handoffs = %v, want 0", v)
	}
	if owner, ok := c.Owner(id); !ok || owner != "node-1" {
		t.Fatalf("after fallback, owner = %q, %v; want node-1", owner, ok)
	}

	// The stream recalibrates live on node-1. Falling back means
	// starting over, clock included: calibration windows anchor at
	// stream time zero, so the source restarts its session (fresh
	// timestamps) exactly as a reconnecting reader would.
	phase2, _ := synthBatches(t, 92, "LC", 0)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-2 letters after live recalibration`, func() bool {
		return tape.get(id) == "ITLC"
	})
	if v := reg.Snapshot().Value("engine_streams_adopted_total"); v != 0 {
		t.Errorf("engine_streams_adopted_total = %v, want 0 (nothing transferred)", v)
	}
}
