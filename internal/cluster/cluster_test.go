package cluster_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
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

// TestClusterSourcePanicIsolated mirrors the engine's
// TestEngineSourcePanicIsolated on the cluster path: a source that
// panics after delivering its word makes RunStream return an error
// naming the panic instead of crashing the process, the stream is
// flushed as on any source error (its last letter comes out before
// Close), and a healthy stream run afterwards on the same cluster
// still recognizes its word.
func TestClusterSourcePanicIsolated(t *testing.T) {
	tape := newLetterTape()
	c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: obs.NewRegistry(), OnEvent: tape.onEvent})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	capture := func(seed int64) *unpacedSource {
		reports, err := replay.Synthesize(seed, "IT", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return &unpacedSource{reports: reports}
	}

	err := c.RunStream("bomb", panicSource{capture(96)})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RunStream err = %v, want source-panic error", err)
	}
	waitFor(t, 10*time.Second, `flushed letters "IT" on the panicked stream`, func() bool {
		return tape.get("bomb") == "IT"
	})

	if err := c.RunStream("good", capture(97)); err != nil {
		t.Fatalf("healthy stream after source panic: %v", err)
	}
	byID := map[engine.StreamID]engine.StreamResult{}
	for _, res := range c.Close()["node-0"] {
		byID[res.ID] = res
	}
	if res := byID["good"]; res.Letters != "IT" {
		t.Errorf("healthy stream recognized %q, want %q", res.Letters, "IT")
	}
}

// panicSource delivers its capture, then panics where it would report
// the stream's end.
type panicSource struct{ *unpacedSource }

func (s panicSource) NextReports() ([]llrp.TagReport, error) {
	reports, err := s.unpacedSource.NextReports()
	if errors.Is(err, llrp.ErrStreamEnded) {
		panic("source detonated")
	}
	return reports, err
}

// frameSource replays fixed report frames, one per NextReports call.
type frameSource struct {
	frames [][]llrp.TagReport
	pos    int
}

func (s *frameSource) NextReports() ([]llrp.TagReport, error) {
	if s.pos >= len(s.frames) {
		return nil, llrp.ErrStreamEnded
	}
	s.pos++
	return s.frames[s.pos-1], nil
}

// eventLog records every event per stream, in delivery order.
type eventLog struct {
	mu     sync.Mutex
	events map[engine.StreamID][]core.Event
}

func (l *eventLog) record(id engine.StreamID, ev core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.events == nil {
		l.events = map[engine.StreamID][]core.Event{}
	}
	l.events[id] = append(l.events[id], ev)
}

// TestClusterPushMatchesEngineRunStream sends the same captures, in
// the same 256-report frames, through Cluster.Push on a one-node
// cluster and through engine.RunStream. The two intake paths must be
// indistinguishable downstream: identical events per stream, identical
// drops (one frame carries a NaN phase and a +5 dBm RSS, which the
// sanitizer rejects, and a reading 2 s behind the stream, which its
// clock drops as late), and every offered reading counted in
// engine_readings_total.
func TestClusterPushMatchesEngineRunStream(t *testing.T) {
	const frameLen = 256
	words := []string{"IT", "LC", "TI"}
	frames := make([][][]llrp.TagReport, len(words))
	offered := 0
	for i, word := range words {
		reports, err := replay.Synthesize(int64(110+i), word, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(reports); lo += frameLen {
			frames[i] = append(frames[i], reports[lo:min(lo+frameLen, len(reports))])
		}
		offered += len(reports)
	}
	// Two readings the sanitizer must reject and one the stream's clock
	// must drop as late, appended to a frame well past the calibration
	// prelude.
	const bad = 20
	f := append([]llrp.TagReport(nil), frames[0][bad]...)
	newest := f[len(f)-1].Timestamp
	nan, loud, stale := f[0], f[1], f[2]
	nan.PhaseRad = math.NaN()
	loud.RSSdBm = 5
	stale.Timestamp = newest - 2*time.Second
	frames[0][bad] = append(f, nan, loud, stale)
	offered += 3

	id := func(i int) engine.StreamID { return engine.StreamID(fmt.Sprintf("plate-%d", i)) }

	regE := obs.NewRegistry()
	var viaEngine eventLog
	eng := engine.New(engine.Config{Workers: 1, Obs: regE, OnEvent: viaEngine.record})
	for i := range words {
		if err := eng.RunStream(id(i), &frameSource{frames: frames[i]}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	// A lease far longer than the test keeps every event past the
	// cluster's lease gate, even while Close drains the node.
	regC := obs.NewRegistry()
	var viaCluster eventLog
	c := cluster.New(cluster.Config{FailAfter: time.Minute, EngineWorkers: 1, Obs: regC,
		OnEvent: func(_ cluster.NodeID, sid engine.StreamID, ev core.Event) { viaCluster.record(sid, ev) }})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	for i := range words {
		for _, frame := range frames[i] {
			readings := make([]core.Reading, len(frame))
			for j, rep := range frame {
				readings[j] = live.ReadingFromReport(rep)
			}
			for !c.Push(id(i), readings) {
				time.Sleep(100 * time.Microsecond) // mailbox full: retry the same slice
			}
		}
		c.FlushStream(id(i))
	}
	c.Close()

	for i, word := range words {
		want, got := viaEngine.events[id(i)], viaCluster.events[id(i)]
		if len(want) == 0 {
			t.Fatalf("%s (%q): the engine path emitted no events", id(i), word)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%q): Cluster.Push emitted %d events, engine.RunStream %d; they differ",
				id(i), word, len(got), len(want))
		}
	}
	snapE, snapC := regE.Snapshot(), regC.Snapshot()
	for _, reason := range []string{"phase", "rss"} {
		e := snapE.Value("readings_rejected_total", obs.L("reason", reason))
		cl := snapC.Value("readings_rejected_total", obs.L("reason", reason))
		if e != 1 || cl != e {
			t.Errorf("readings_rejected_total{reason=%s}: cluster %v, engine %v, want 1 each", reason, cl, e)
		}
	}
	late := obs.L("reason", "late")
	if e, cl := snapE.Value("rfipad_readings_dropped_total", late), snapC.Value("rfipad_readings_dropped_total", late); e != 1 || cl != e {
		t.Errorf("rfipad_readings_dropped_total{reason=late}: cluster %v, engine %v, want 1 each", cl, e)
	}
	for name, snap := range map[string]obs.Snapshot{"engine": snapE, "cluster": snapC} {
		if got := snap.Value("engine_readings_total"); got != float64(offered) {
			t.Errorf("%s path: engine_readings_total = %v, want every offered reading (%d)", name, got, offered)
		}
	}
}

// TestClusterFlushNeverBlocksCoordinator pins that a flush is routed
// like a batch: it never waits on an owner's mailbox under the
// coordinator lock. The one-worker node's shard is held in OnEvent at
// the stream's first event and its mailbox filled, and FlushStream
// runs meanwhile. Routing reads (Owner) must answer at once, and
// heartbeats must keep flowing, so the failure detector and the leases
// stay fed. Once the shard is released, the flush lands after every
// batch of the stream, and its letters come out before Close.
func TestClusterFlushNeverBlocksCoordinator(t *testing.T) {
	const id, filler engine.StreamID = "plate-0", "filler"
	held, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	tape := newLetterTape()
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Config{
		HeartbeatInterval: 5 * time.Millisecond,
		FailAfter:         time.Minute,
		EngineWorkers:     1,
		Obs:               reg,
		OnEvent: func(n cluster.NodeID, sid engine.StreamID, ev core.Event) {
			hold.Do(func() {
				close(held)
				<-release
			})
			tape.onEvent(n, sid, ev)
		},
	})
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	batches, _ := synthBatches(t, 12, "IT", 0)
	for _, b := range batches {
		for !c.Push(id, b) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream emitted no event")
	}
	for c.Push(filler, batches[0]) {
	}
	released := false
	letGo := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer letGo()

	flushed := make(chan struct{})
	go func() {
		c.FlushStream(id)
		close(flushed)
	}()
	time.Sleep(20 * time.Millisecond)
	beats := reg.Snapshot().Value("cluster_heartbeats_total")
	for range 5 {
		answered := make(chan struct{})
		go func() {
			c.Owner(id)
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(100 * time.Millisecond):
			t.Error("Owner blocked behind a flush waiting on a full mailbox")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg.Snapshot().Value("cluster_heartbeats_total"); got <= beats {
		t.Errorf("cluster_heartbeats_total stayed at %v while a flush waited", got)
	}

	letGo()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush never landed once the shard was released")
	}
	waitFor(t, 10*time.Second, `letters "IT"`, func() bool { return tape.get(id) == "IT" })
}
