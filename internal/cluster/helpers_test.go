package cluster_test

import (
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/replay"
)

// synthBatches synthesizes a full RFIPad capture (static prelude +
// word), optionally time-shifted, and chunks it into push-sized
// batches of readings. maxTS is the largest timestamp in the capture
// (post-shift), for chaining phases on one stream clock.
func synthBatches(t testing.TB, seed int64, word string, shift time.Duration) (batches [][]core.Reading, maxTS time.Duration) {
	return synth(t, seed, word, shift, false)
}

// synthLetters is synthBatches minus the static prelude: only the
// written letters remain, so a stream fed this capture can never
// calibrate live — recognizing it proves the calibration arrived via
// checkpoint handoff.
func synthLetters(t testing.TB, seed int64, word string, shift time.Duration) (batches [][]core.Reading, maxTS time.Duration) {
	return synth(t, seed, word, shift, true)
}

func synth(t testing.TB, seed int64, word string, shift time.Duration, stripPrelude bool) (batches [][]core.Reading, maxTS time.Duration) {
	t.Helper()
	const prelude = 3 * time.Second
	reports, err := replay.Synthesize(seed, word, prelude)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 400
	var batch []core.Reading
	for _, rep := range reports {
		if stripPrelude && rep.Timestamp <= prelude {
			continue
		}
		rep.Timestamp += shift
		if rep.Timestamp > maxTS {
			maxTS = rep.Timestamp
		}
		batch = append(batch, live.ReadingFromReport(rep))
		if len(batch) == chunk {
			batches = append(batches, batch)
			batch = nil
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches, maxTS
}

// letterTape aggregates recognized letters per stream across every
// node — the cluster-wide view a migration must keep contiguous.
type letterTape struct {
	mu      sync.Mutex
	letters map[engine.StreamID]string
}

func newLetterTape() *letterTape {
	return &letterTape{letters: map[engine.StreamID]string{}}
}

func (lt *letterTape) onEvent(_ cluster.NodeID, id engine.StreamID, ev core.Event) {
	if ev.Kind == core.LetterDeduced {
		lt.mu.Lock()
		lt.letters[id] += string(ev.Letter)
		lt.mu.Unlock()
	}
}

func (lt *letterTape) get(id engine.StreamID) string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.letters[id]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// pushAll feeds every batch of one capture phase into the cluster.
func pushAll(c *cluster.Cluster, id engine.StreamID, batches [][]core.Reading) {
	for _, b := range batches {
		c.Push(id, b)
	}
}

// pushEngine offers readings straight to one node's engine, bypassing
// the coordinator's routing and lease gate, as one pooled columnar
// batch; a refused batch goes back to the pool.
func pushEngine(eng *engine.Engine, id engine.StreamID, readings []core.Reading) {
	b := core.GetBatch()
	for _, rd := range readings {
		b.AppendReading(rd)
	}
	if !eng.PushBatch(id, b) {
		core.PutBatch(b)
	}
}
