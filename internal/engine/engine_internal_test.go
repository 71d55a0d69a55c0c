package engine

import (
	"reflect"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/obs"
)

// TestShardIndexStableAndBounded pins the stream→shard mapping:
// deterministic, in range, and spread across more than one shard for a
// realistic ID population.
func TestShardIndexStableAndBounded(t *testing.T) {
	ids := []StreamID{"plate-0", "plate-1", "plate-2", "plate-3", "reader:192.168.0.7"}
	seen := map[int]bool{}
	for _, id := range ids {
		i := shardIndex(id, 4)
		if i < 0 || i >= 4 {
			t.Fatalf("shardIndex(%q, 4) = %d, out of range", id, i)
		}
		if j := shardIndex(id, 4); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", id, i, j)
		}
		seen[i] = true
	}
	if len(seen) < 2 {
		t.Errorf("all %d ids hashed to one shard — no spread", len(ids))
	}
}

// TestPushBatchRefusedLeavesBatchWithCaller pins the intake contract
// on a 1-deep mailbox with no worker draining it, and on a closed
// engine: a refused PushBatch returns false at once, leaves the batch's
// columns untouched for the caller to retry, and counts the refusal in
// engine_overflow_total — not in engine_dropped_readings_total, because
// nothing was lost yet.
func TestPushBatchRefusedLeavesBatchWithCaller(t *testing.T) {
	reg := obs.NewRegistry()
	// Hand-built engine with one shard and NO worker goroutine, so the
	// mailbox state is fully deterministic.
	e := &Engine{cfg: Config{Workers: 1}.withDefaults(), tel: newTelemetry(reg)}
	e.shards = []*shard{{eng: e, mail: make(chan item, 1), stop: make(chan struct{}), streams: map[StreamID]*streamState{}}}

	batch := func() *core.ReadingBatch {
		b := &core.ReadingBatch{}
		b.Append(time.Millisecond, 1, -60, 0)
		b.Append(2*time.Millisecond, 2, -61, 1)
		return b
	}
	want := batch()
	refused := func(step string, wantOverflow uint64) {
		t.Helper()
		b := batch()
		done := make(chan bool, 1)
		go func() { done <- e.PushBatch("s", b) }()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("%s: PushBatch reported accepted", step)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: PushBatch blocked — a refusal must return at once", step)
		}
		if !reflect.DeepEqual(b, want) {
			t.Errorf("%s: refused batch changed: %+v, want %+v", step, b, want)
		}
		if got := e.tel.overflow.Value(); got != wantOverflow {
			t.Errorf("%s: engine_overflow_total = %d, want %d", step, got, wantOverflow)
		}
		if got := e.tel.droppedR.Value(); got != 0 {
			t.Errorf("%s: engine_dropped_readings_total = %d, want 0", step, got)
		}
	}

	if !e.PushBatch("s", batch()) {
		t.Fatal("first push should fit the mailbox")
	}
	refused("full mailbox", 1)
	e.closed.Store(true)
	refused("closed engine", 2)
}

// TestPushEmptyBatchIsNoop guards the fast path: empty and nil batches
// are accepted without touching the mailbox or counters.
func TestPushEmptyBatchIsNoop(t *testing.T) {
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	if !e.PushBatch("s", core.GetBatch()) || !e.PushBatch("s", nil) {
		t.Error("empty batch rejected")
	}
	if got := e.tel.batches.Value(); got != 0 {
		t.Errorf("engine_batches_total = %d, want 0", got)
	}
	if got := e.tel.overflow.Value(); got != 0 {
		t.Errorf("engine_overflow_total = %d, want 0", got)
	}
}

// TestRunStreamPushPoolsRefusedBatch pins RunStream's push on a closed
// engine: it refuses the batch with ErrClosed and returns it to the
// pool, which resets it, since the drain loop hands the batch over for
// good.
func TestRunStreamPushPoolsRefusedBatch(t *testing.T) {
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	e.Close()
	b := core.GetBatch()
	b.Append(time.Millisecond, 1, -60, 0)
	if err := e.pushDrained("s", b); err != ErrClosed {
		t.Fatalf("pushDrained on a closed engine = %v, want ErrClosed", err)
	}
	if b.Len() != 0 {
		t.Errorf("refused batch still holds %d readings; it was not returned to the pool", b.Len())
	}
}
