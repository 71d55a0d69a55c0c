package cluster_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// fastConfig is the base sim-test tuning: quick heartbeats and tight
// failure detection so membership churn resolves in tens of
// milliseconds, single-shard node engines for determinism.
func fastConfig(reg *obs.Registry) cluster.Config {
	return cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         150 * time.Millisecond,
		HandoffTimeout:    3 * time.Second,
		EngineWorkers:     1,
		Obs:               reg,
	}
}

// TestClusterRoutesAndRecognizes is the single-node sanity baseline: a
// one-member cluster routes a full capture to its engine and the word
// comes out, with membership and placement visible on cluster_*.
func TestClusterRoutesAndRecognizes(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	batches, _ := synthBatches(t, 70, "IT", 0)
	pushAll(c, "plate-0", batches)
	c.FlushStream("plate-0")
	waitFor(t, 10*time.Second, `letters "IT"`, func() bool {
		return tape.get("plate-0") == "IT"
	})

	owner, ok := c.Owner("plate-0")
	if !ok || owner != "node-0" {
		t.Errorf("Owner = %q, %v; want node-0", owner, ok)
	}
	snap := reg.Snapshot()
	if v := snap.Value("cluster_nodes"); v != 1 {
		t.Errorf("cluster_nodes = %v, want 1", v)
	}
	if v := snap.Value("cluster_streams_placed"); v != 1 {
		t.Errorf("cluster_streams_placed = %v, want 1", v)
	}
	if v := snap.Value("cluster_heartbeats_total"); v == 0 {
		t.Error("cluster_heartbeats_total stayed zero")
	}

	results := c.Close()
	if res := results["node-0"]; len(res) != 1 || res[0].Letters != "IT" {
		t.Errorf("node-0 results = %+v, want one stream with IT", res)
	}
}

// TestClusterSpreadsStreams places many streams across members and
// demands every member own at least one — the coordinator must
// actually distribute, not pile everything on one engine.
func TestClusterSpreadsStreams(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(fastConfig(reg))
	defer c.Close()
	nodes := []cluster.NodeID{"node-0", "node-1", "node-2"}
	for _, id := range nodes {
		if _, err := c.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[cluster.NodeID]int{}
	for i := 0; i < 32; i++ {
		id := engine.StreamID("plate-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		counts[owner]++
	}
	for _, id := range nodes {
		if counts[id] == 0 {
			t.Errorf("node %s owns no streams: %v", id, counts)
		}
	}
}

// TestClusterLeaveHandsOffGracefully drains a member mid-word: its
// calibrated stream must move to the survivor via a live-state
// checkpoint handoff (not the durable store — none is configured) and
// finish the word there with no recalibration.
func TestClusterLeaveHandsOffGracefully(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-0")
	phase1, max1 := synthBatches(t, 56, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-1 letters "IT"`, func() bool {
		return tape.get(id) == "IT"
	})

	// Bring in the successor, then drain the original owner. The
	// stream must land on node-1 regardless of ring preference —
	// node-1 is the only member left.
	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("node-0"); err != nil {
		t.Fatal(err)
	}
	owner, ok := c.Owner(id)
	if !ok || owner != "node-1" {
		t.Fatalf("after leave, owner = %q, %v; want node-1", owner, ok)
	}

	// Prelude-free continuation: only the migrated calibration can
	// recognize it.
	phase2, _ := synthLetters(t, 56, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-2 letters "ITLC"`, func() bool {
		return tape.get(id) == "ITLC"
	})

	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != 1 {
		t.Errorf("restored handoffs = %v, want 1", v)
	}
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("fallback handoffs = %v, want 0", v)
	}
	if v := snap.Value("engine_streams_adopted_total"); v != 1 {
		t.Errorf("engine_streams_adopted_total = %v, want 1", v)
	}
	if v := snap.Value("engine_streams_evicted_total"); v != 1 {
		t.Errorf("engine_streams_evicted_total = %v, want 1", v)
	}
	if n := reg.Snapshot().HistCount("cluster_handoff_seconds", obs.L("trigger", "graceful")); n != 1 {
		t.Errorf("cluster_handoff_seconds{trigger=graceful} count = %d, want 1", n)
	}
}

// TestClusterJoinRebalanceIsSticky pins the sticky-placement rule: an
// uncalibrated stream (prelude still in progress) whose ring owner
// changes on a join stays where it is — migrating nothing would only
// destroy the partial prelude.
func TestClusterJoinRebalanceIsSticky(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(fastConfig(reg))
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	// One tiny batch: enough to create placements, nowhere near enough
	// to calibrate.
	batches, _ := synthBatches(t, 72, "I", 0)
	ids := []engine.StreamID{"plate-0", "plate-1", "plate-2", "plate-3"}
	for _, id := range ids {
		c.Push(id, batches[0])
	}
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner != "node-0" {
			t.Fatalf("stream %s not on the only node", id)
		}
	}

	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	// Any rebalance migrations must resolve as sticky no-ops: every
	// stream still on node-0, nothing handed off.
	waitFor(t, 5*time.Second, "rebalance to settle", func() bool {
		for _, id := range ids {
			if owner, ok := c.Owner(id); !ok || owner != "node-0" {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond) // let any in-flight migration finalize
	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")) +
		snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("handoffs = %v, want 0 (sticky)", v)
	}
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner != "node-0" {
			t.Errorf("stream %s moved to %s; sticky placement should hold", id, owner)
		}
	}
}

// TestClusterCloseIdempotent demands the second Close return the first
// call's results — callers on different shutdown paths (signal
// handler, defer) must not race each other into a double drain.
func TestClusterCloseIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	batches, _ := synthBatches(t, 73, "IT", 0)
	pushAll(c, "plate-0", batches)
	c.FlushStream("plate-0")
	waitFor(t, 10*time.Second, "letters", func() bool { return tape.get("plate-0") == "IT" })

	first := c.Close()
	second := c.Close()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("result maps: first %d, second %d nodes", len(first), len(second))
	}
	f, s := first["node-0"], second["node-0"]
	if len(f) != 1 || len(s) != 1 || f[0].Letters != s[0].Letters || f[0].Letters != "IT" {
		t.Errorf("second Close diverged: first %+v, second %+v", f, s)
	}
	// Push after close sheds, never panics.
	if c.Push("plate-0", batches[0]) {
		t.Error("Push accepted a batch after Close")
	}
}

// unpacedSource serves a capture in 50 ms report windows as fast as it
// is asked: a session catching up after an outage, or a replayed
// recording.
type unpacedSource struct {
	reports []llrp.TagReport
	pos     int
	started chan struct{} // closed by the first NextReports, when set
}

func (s *unpacedSource) NextReports() ([]llrp.TagReport, error) {
	if s.pos == 0 && s.started != nil {
		close(s.started)
	}
	if s.pos >= len(s.reports) {
		return nil, llrp.ErrStreamEnded
	}
	start := s.pos
	cut := s.reports[start].Timestamp + 50*time.Millisecond
	for s.pos < len(s.reports) && s.reports[s.pos].Timestamp < cut {
		s.pos++
	}
	return s.reports[start:s.pos], nil
}

func (s *unpacedSource) Stats() llrp.SessionStats { return llrp.SessionStats{} }

// TestClusterRunStreamKeepsEveryReading pushes 8 unpaced captures
// through a one-node cluster, far faster than its single engine worker
// drains them. RunStream must slow the sources down instead of
// shedding: every offered reading is ingested and none is counted as
// dropped. Membership runs on the default timing, so heartbeats delayed
// by the saturated engine cannot expire the only node mid-test.
func TestClusterRunStreamKeepsEveryReading(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: reg})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	const streams = 8
	offered := 0
	srcs := make([]*unpacedSource, streams)
	for i := range srcs {
		reports, err := replay.Synthesize(int64(90+i), "IT", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		offered += len(reports)
		srcs[i] = &unpacedSource{reports: reports}
	}
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.RunStream(engine.StreamID(fmt.Sprintf("plate-%d", i)), src)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("plate-%d: RunStream: %v", i, err)
		}
	}
	c.Close()

	snap := reg.Snapshot()
	if got := snap.Value("engine_readings_total"); got != float64(offered) {
		t.Errorf("engine_readings_total = %v, want every offered reading (%d)", got, offered)
	}
	if got := snap.Value("cluster_dropped_readings_total"); got != 0 {
		t.Errorf("cluster_dropped_readings_total = %v, want 0", got)
	}
}

// TestClusterRunStreamReturnsOnClose pins RunStream's exit while a
// push is being retried: once Close has begun it stops waiting,
// counts the batch in hand as dropped and returns ErrClosed.
func TestClusterRunStreamReturnsOnClose(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Config{Obs: reg}) // no members: every push is refused
	reports, err := replay.Synthesize(95, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	src := &unpacedSource{reports: reports, started: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- c.RunStream("plate-0", src) }()
	<-src.started
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, cluster.ErrClosed) {
			t.Errorf("RunStream after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream kept retrying after Close")
	}
	if got := reg.Snapshot().Value("cluster_dropped_batches_total"); got != 1 {
		t.Errorf("cluster_dropped_batches_total = %v, want the 1 batch in hand", got)
	}
}
