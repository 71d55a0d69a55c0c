package rfipad

// Allocation-regression tests for the recognition hot path. The perf
// contract (DESIGN.md §8): steady-state Recognizer.IngestBatch and a
// scratch-reused disturbance map allocate nothing once their buffers
// reach the high-water mark, so a long-running multi-stream engine's
// per-reading cost is pure compute, not GC pressure.

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// steadyStateRecognizer returns a recognizer warmed past its buffer
// high-water marks (several trim/compaction cycles of quiet stream)
// plus a feed function that keeps ingesting the same capture, one
// reading per one-element batch, with monotonically advancing
// timestamps.
func steadyStateRecognizer(t testing.TB) (feed func()) {
	t.Helper()
	sim, err := NewSimulator(SimulatorConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	quiet := decode(sim.CollectStatic(8 * time.Second))
	n := quiet.Len()
	if n == 0 {
		t.Fatal("no quiet capture")
	}
	rec := sim.NewRecognizer(cal)
	lap := quiet.Times[n-1] + time.Millisecond
	var one ReadingBatch
	i := 0
	feed = func() {
		k := i % n
		one.Reset()
		one.Append(quiet.Times[k]+lap*time.Duration(1+i/n), quiet.Phases[k], quiet.RSS[k], quiet.TagIndices[k])
		rec.IngestBatch(&one)
		i++
	}
	// Warm through several 8 s laps: the history buffer and the frame
	// cache grow to their high-water capacity and cycle through
	// multiple trim/compactions, after which ingest is allocation-free.
	for w := 0; w < 6*n; w++ {
		feed()
	}
	return feed
}

// TestRecognizerIngestSteadyStateAllocs pins steady-state ingest at
// zero allocations per reading.
func TestRecognizerIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	feed := steadyStateRecognizer(t)
	if avg := testing.AllocsPerRun(5000, func() { feed() }); avg != 0 {
		t.Errorf("steady-state one-reading IngestBatch allocates %.4f objects/reading, want 0", avg)
	}
}

// TestIngestBatchSteadyStateAllocs pins the columnar hot path at zero
// allocations per batch (and therefore per reading): once warmed, a
// reused ReadingBatch fed through IngestBatch must never touch the
// heap — the DESIGN.md §13 contract the wire-rate ingest path is
// built on.
func TestIngestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	sim, err := NewSimulator(SimulatorConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	quiet := decode(sim.CollectStatic(8 * time.Second))
	if quiet.Len() == 0 {
		t.Fatal("no quiet capture")
	}
	rec := sim.NewRecognizer(cal)
	lap := quiet.Times[quiet.Len()-1] + time.Millisecond

	const chunk = 256
	var batch core.ReadingBatch
	pos, laps := 0, 0
	feed := func() {
		end := min(pos+chunk, quiet.Len())
		batch.Reset()
		off := lap * time.Duration(laps)
		for k := pos; k < end; k++ {
			batch.Append(quiet.Times[k]+off, quiet.Phases[k], quiet.RSS[k], quiet.TagIndices[k])
		}
		rec.IngestBatch(&batch)
		pos = end
		if pos >= quiet.Len() {
			pos = 0
			laps++
		}
	}
	// Warm through several laps, as in steadyStateRecognizer: history
	// and frame cache reach high-water capacity across multiple
	// trim/compaction cycles.
	for laps < 6 {
		feed()
	}
	if avg := testing.AllocsPerRun(2000, feed); avg != 0 {
		t.Errorf("steady-state IngestBatch allocates %.4f objects/batch, want 0", avg)
	}
}

// TestClusterPushSteadyStateAllocs pins the cluster intake at zero
// allocations per push: Cluster.Push copies the caller's 256 readings
// into a pooled columnar batch, routes it to the owner's mailbox, and
// the owner's shard sanitizes and ingests it and returns it to the
// pool. Each measured push waits until the shard has taken its batch,
// so the shard's work lands in the measurement too (AllocsPerRun counts
// every goroutine).
//
// The stream is calibrated by adoption, which resumes recognition at
// the checkpoint's frame cursor, and then fed a quiet capture warmed
// past its buffer high-water marks, as in steadyStateRecognizer. A
// stream that calibrates from its own prelude would not do: its
// recognizer starts at frame 0, and the empty prelude frames read as an
// activity step that keeps the quiet history from ever trimming.
func TestClusterPushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	// AllocsPerRun measures at GOMAXPROCS 1. Warm up at that setting
	// too: changing it empties the batch pool's per-P caches.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sim, err := NewSimulator(SimulatorConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const prelude = 3 * time.Second
	cal, err := sim.Calibrate(prelude)
	if err != nil {
		t.Fatal(err)
	}
	quiet := sim.CollectStatic(8 * time.Second)
	if len(quiet) == 0 {
		t.Fatal("no quiet capture")
	}
	reg := obs.NewRegistry()
	// A lease far longer than the test: no renewal can lapse mid-run.
	c := cluster.New(cluster.Config{FailAfter: time.Minute, EngineWorkers: 1, Obs: reg})
	defer c.Close()
	node, err := c.AddNode("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().AdoptStream("plate-0", supervise.Checkpoint{Stream: "plate-0",
		StreamTime: prelude, FrameCursor: prelude, Calibration: cal.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	ingested := reg.Counter("engine_readings_total", "")

	lap := quiet[len(quiet)-1].Timestamp + time.Millisecond
	batch := make([]core.Reading, 256)
	pos, laps, offered, refused := 0, 0, 0, 0
	fill := func() {
		for j := range batch {
			batch[j] = live.ReadingFromReport(quiet[pos])
			batch[j].Time += prelude + lap*time.Duration(laps)
			if pos++; pos == len(quiet) {
				pos, laps = 0, laps+1
			}
		}
		offered += len(batch)
	}
	drain := func() {
		for ingested.Value() < uint64(offered) {
			runtime.Gosched()
		}
	}
	// Warm through several laps: history and frame cache reach their
	// high-water capacity across several trim/compaction cycles.
	for laps < 6 {
		fill()
		for !c.Push("plate-0", batch) {
			runtime.Gosched()
		}
	}
	drain()
	avg := testing.AllocsPerRun(200, func() {
		fill()
		if !c.Push("plate-0", batch) {
			refused++
			offered -= len(batch)
		}
		drain()
	})
	if refused > 0 {
		t.Fatalf("%d measured pushes refused; the mailbox was drained before each", refused)
	}
	if avg != 0 {
		t.Errorf("steady-state Cluster.Push allocates %.4f objects/push, want 0", avg)
	}
}

// TestUnsampledTraceAllocs pins the unsampled tracing path at zero
// allocations: an unsampled stream resolves to a nil *StreamTrace, and
// recording through it — exactly what the engine's per-batch hot path
// does when a stream lost the sampling lottery — must cost nothing
// beyond the nil check. This guards the PR-7 contract that tracing is
// free for the (SampleEvery-1)/SampleEvery majority of streams.
func TestUnsampledTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	tr := trace.New(trace.Config{SampleEvery: -1, Obs: obs.NewRegistry()})
	st := tr.Stream("plate-0") // nil: sampling disabled
	if st != nil {
		t.Fatal("expected unsampled stream")
	}
	if avg := testing.AllocsPerRun(5000, func() {
		st.Add(trace.Span{Name: trace.SpanIngest, Count: 64})
	}); avg != 0 {
		t.Errorf("unsampled StreamTrace.Add allocates %.4f objects/span, want 0", avg)
	}
	// Resolving an already-decided stream is also allocation-free: the
	// engine hot path holds the handle, but the live pipeline re-resolves
	// per reconnect and must not leak decisions.
	if avg := testing.AllocsPerRun(5000, func() {
		tr.Stream("plate-0")
	}); avg != 0 {
		t.Errorf("memoized Tracer.Stream allocates %.4f objects/lookup, want 0", avg)
	}

	// A sampled stream's ring reuses preallocated slots, so even the
	// sampled path is allocation-free after the ring fills once.
	sampled := trace.New(trace.Config{SampleEvery: 1, BufSpans: 64, Obs: obs.NewRegistry()})
	hot := sampled.Stream("plate-1")
	for i := 0; i < 64; i++ {
		hot.Add(trace.Span{Name: trace.SpanIngest})
	}
	if avg := testing.AllocsPerRun(5000, func() {
		hot.Add(trace.Span{Name: trace.SpanIngest, Count: 64})
	}); avg != 0 {
		t.Errorf("sampled StreamTrace.Add allocates %.4f objects/span after ring warm-up, want 0", avg)
	}
}

// TestDisturbanceScratchMapAllocs pins the scratch-reused disturbance
// map at zero allocations per window, and the convenience
// core.DisturbanceMap wrapper (which builds a fresh scratch per call)
// at a small fixed count — the bound a regression would break.
func TestDisturbanceScratchMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	sim, err := NewSimulator(SimulatorConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	capture := decode(sim.CollectStatic(4 * time.Second))
	window := capture.Slice(capture.Len()/2, capture.Len()) // ~2 s window, a typical stroke span

	var sc core.DisturbanceScratch
	sc.Map(window, cal, core.DisturbanceOptions{}) // reach high-water
	if avg := testing.AllocsPerRun(500, func() {
		sc.Map(window, cal, core.DisturbanceOptions{})
	}); avg != 0 {
		t.Errorf("scratch-reused disturbance map allocates %.4f objects/window, want 0", avg)
	}

	// The allocating wrapper stays bounded by a constant: the split's
	// two offset slices and three columns and the map (the scratch
	// struct stays on the stack) — 6 objects on this window, a count
	// that does not grow with the window's length or tag count. 16
	// leaves headroom and sits far below any per-tag or per-reading
	// regression.
	const bound = 16
	if avg := testing.AllocsPerRun(100, func() {
		core.DisturbanceMap(window, cal, core.DisturbanceOptions{})
	}); avg > bound {
		t.Errorf("DisturbanceMap allocates %.1f objects/window, want <= %d", avg, bound)
	}
}

// TestRecognizeWindowAllocs bounds the allocations of recognizing one
// stroke window once the pipeline's pooled scratch is warm: the window
// is split by tag once into reused columns, so what remains is the
// result the caller keeps (image, mask, troughs) and the classifier's
// own small slices, not a per-reading or per-tag cost. Every motion is
// measured at windows of 400, 800 and 1600 readings around its stroke.
func TestRecognizeWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	sim, err := NewSimulator(SimulatorConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.NewPipeline(cal)
	const bound = 32
	for i, m := range AllMotions() {
		reports, _ := sim.PerformMotion(m, int64(i))
		capture := decode(reports)
		mid := capture.Len() / 2
		for _, n := range []int{400, 800, 1600} {
			lo := max(0, mid-n/2)
			win := capture.Slice(lo, min(capture.Len(), lo+n))
			if !p.RecognizeWindow(win).Ok {
				t.Fatalf("%v: the %d-reading window holds no recognizable stroke", m, win.Len())
			}
			if avg := testing.AllocsPerRun(20, func() { p.RecognizeWindow(win) }); avg > bound {
				t.Errorf("%v: RecognizeWindow over %d readings allocates %.0f objects, want <= %d", m, win.Len(), avg, bound)
			}
		}
	}
}

// TestComposeLetterAllocs bounds letter composition: the grammar is
// matched by comparing motion sequences in place, so an exact match and
// a fuzzy one each allocate only the normalized observations.
func TestComposeLetterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	strokes, ok := LetterStrokes('H')
	if !ok {
		t.Fatal("no grammar entry for H")
	}
	exact := make([]core.StrokeObservation, len(strokes))
	for i, p := range strokes {
		exact[i] = core.StrokeObservation{Motion: p.Motion, Box: p.Box}
	}
	fuzzy := append([]core.StrokeObservation(nil), exact...)
	fuzzy[1].Motion.Dir = Reverse // no letter draws H's bar right to left
	if _, ok := core.ComposeLetterStrict(fuzzy); ok {
		t.Fatal("the fuzzy case matches a letter exactly")
	}
	for _, c := range []struct {
		name string
		obs  []core.StrokeObservation
	}{{"exact", exact}, {"fuzzy", fuzzy}} {
		if ch, ok := ComposeLetter(c.obs); !ok || ch != 'H' {
			t.Fatalf("%s: composed %q/%v, want H", c.name, ch, ok)
		}
		if avg := testing.AllocsPerRun(200, func() { ComposeLetter(c.obs) }); avg > 4 {
			t.Errorf("%s: ComposeLetter allocates %.0f objects, want <= 4", c.name, avg)
		}
	}
}

// TestRecycledStreamAllocs pins buffer recycling between streams: once
// a stream over a written word is released, a second stream over the
// same capture builds its recognizer on the first one's history, frame
// cache and segmentation scratch, and its prelude in the first one's
// batch. It may allocate at most a tenth of the bytes the first stream
// allocated; what remains is calibration, the recognizer's small
// structs and the events.
func TestRecycledStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	sim, err := NewSimulator(SimulatorConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	const prelude = 3 * time.Second
	capture := decode(sim.CollectStatic(prelude))
	word, _, err := sim.WriteWord("HI", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range word {
		word[i].Timestamp += prelude + time.Second
	}
	AppendReports(capture, word)
	// One P, so a Put and the next Get meet in the same pool slot, and
	// no collection, which would empty the pools between the streams.
	// The two forced collections start both pools empty.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	reg := obs.NewRegistry()
	events := 0
	stream := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := live.NewStream(live.Config{Obs: reg})
		for i := 0; i < capture.Len(); i += 256 {
			b := capture.Slice(i, min(i+256, capture.Len()))
			evs, err := st.IngestBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			events += len(evs)
		}
		events += len(st.Flush())
		st.Release()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := stream()
	second := stream()
	t.Logf("%d readings, %d events per stream: first stream %d B, second %d B (%.1f %%)",
		capture.Len(), events/2, first, second, 100*float64(second)/float64(first))
	if second*10 > first {
		t.Errorf("a stream on recycled buffers allocates %d B, over a tenth of the first stream's %d B", second, first)
	}
}
