package live_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/replay"
	"rfipad/internal/tagmodel"
)

// TestRecognitionDigestOnRecycledBuffers recomputes the golden digest of
// TestRecognitionGoldenDigest with every stream's recognizer built on
// the buffers another stream released just before it: a 16×-densified
// stream, a stream on a 4×4 grid, and a stream released mid-letter. A
// recycled recognizer must recognize exactly what a new one does,
// whatever its buffers held.
func TestRecognitionDigestOnRecycledBuffers(t *testing.T) {
	// With one P, each Release lands in the pool's slot for the test's
	// goroutine, and the next recognizer built takes it from there. A
	// collection only moves pooled buffers to the victim cache, and the
	// next one drops them. The heap is collected right before each
	// release, and a new stream's prelude allocates far too little to
	// trigger two more. So every digest stream runs on the releaser's
	// buffers (under the race detector, sync.Pool drops some Puts, and
	// those streams run on new ones).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	synth := func(seed int64, word string) []llrp.TagReport {
		reps, err := replay.Synthesize(seed, word, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	captures := make([][]llrp.TagReport, len(digestCaptures))
	for i, c := range digestCaptures {
		captures[i] = synth(c.seed, c.word)
	}
	dense := densify(synth(2301, "OX"), 16)
	small := subGrid(synth(2302, "LT"))
	word := synth(2303, "HEN")
	// Each releaser runs a stream up to where it is released.
	releasers := []struct {
		name string
		run  func(t *testing.T) *live.Stream
	}{
		{"dense", func(t *testing.T) *live.Stream {
			st := live.NewStream(live.Config{})
			feed(t, st, 256, dense, nil)
			st.Flush()
			return st
		}},
		{"grid4x4", func(t *testing.T) *live.Stream {
			st := live.NewStream(live.Config{Grid: core.Grid{Rows: 4, Cols: 4}})
			for i := 0; i < small.Len(); i += 256 {
				b := small.Slice(i, min(i+256, small.Len()))
				if _, err := st.IngestBatch(&b); err != nil {
					t.Fatal(err)
				}
			}
			st.Flush()
			return st
		}},
		{"mid-letter", func(t *testing.T) *live.Stream {
			st := live.NewStream(live.Config{})
			feed(t, st, 256, word, func() bool {
				pending, head, incr := recognizerState(st)
				return pending > 0 && head > 0 && incr
			})
			return st
		}},
	}
	for _, r := range releasers {
		t.Run(r.name, func(t *testing.T) {
			h := sha256.New()
			for _, reps := range captures {
				for _, batch := range []int{256, 1} {
					st := r.run(t)
					runtime.GC()
					st.Release()
					evs := streamEvents(t, reps, batch)
					writeInts(h, int64(len(evs)))
					for _, ev := range evs {
						hashEvent(h, ev)
					}
				}
				res := offlineResults(t, reps)
				writeInts(h, int64(len(res)))
				for _, br := range res {
					writeInts(h, int64(br.Span.Start), int64(br.Span.End))
					hashMotion(h, br.Result)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != recognitionDigest {
				t.Errorf("recognition digest on buffers released by a %s stream = %s, want %s", r.name, got, recognitionDigest)
			}
		})
	}
}

// feed ingests reps into st in batches until stop reports true after a
// batch (nil never stops); reaching the end without stopping fails.
func feed(t *testing.T, st *live.Stream, batch int, reps []llrp.TagReport, stop func() bool) {
	t.Helper()
	var b core.ReadingBatch
	for i := 0; i < len(reps); i += batch {
		b.Reset()
		live.AppendReports(&b, reps[i:min(i+batch, len(reps))])
		if _, err := st.IngestBatch(&b); err != nil {
			t.Fatal(err)
		}
		if stop != nil && stop() {
			return
		}
	}
	if stop != nil {
		t.Fatal("the stream never reached the state to release it in")
	}
}

// recognizerState reads the internals of a stream's recognizer that say
// what a release leaves behind: the strokes pending a letter, the dead
// prefix of the history (head), and whether the segmenter's incremental
// state is valid. They are core's unexported state, read by reflection
// to prove the mid-letter releaser is in the state it is named for.
func recognizerState(st *live.Stream) (pending, head int, incrValid bool) {
	rec := reflect.ValueOf(st).Elem().FieldByName("rec")
	if rec.IsNil() {
		return 0, 0, false
	}
	rec = rec.Elem()
	scratch := rec.FieldByName("recBuffers").Elem().FieldByName("scratch")
	return rec.FieldByName("pending").Len(), int(rec.FieldByName("head").Int()),
		scratch.FieldByName("incrValid").Bool()
}

// densify interleaves copies time-shifted copies of a capture into one
// strictly time-increasing stream, the shape of a reader near its wire
// limit.
func densify(reps []llrp.TagReport, copies int) []llrp.TagReport {
	out := make([]llrp.TagReport, 0, len(reps)*copies)
	for _, r := range reps {
		for c := 0; c < copies; c++ {
			rc := r
			rc.Timestamp += time.Duration(c) * 2917 * time.Microsecond
			out = append(out, rc)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	for i := 1; i < len(out); i++ {
		if out[i].Timestamp <= out[i-1].Timestamp {
			out[i].Timestamp = out[i-1].Timestamp + time.Microsecond
		}
	}
	return out
}

// subGrid keeps the readings of a 5×5 capture's top-left 4×4 tags,
// numbered row-major on the smaller grid.
func subGrid(reps []llrp.TagReport) *core.ReadingBatch {
	b := new(core.ReadingBatch)
	for _, rep := range reps {
		i := tagmodel.SerialOf(rep.EPC) - 1
		if r, c := i/5, i%5; i >= 0 && r < 4 && c < 4 {
			b.Append(rep.Timestamp, rep.PhaseRad, rep.RSSdBm, int32(r*4+c))
		}
	}
	return b
}

// TestReleasedStreamPanics pins the use-after-release contract of a
// stream, calibrated or not: IngestBatch and Flush panic instead of
// writing into buffers a newer stream may own, and a second Release is
// a no-op.
func TestReleasedStreamPanics(t *testing.T) {
	reps, err := replay.Synthesize(2304, "I", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var b core.ReadingBatch
	live.AppendReports(&b, reps)
	cut := sort.Search(b.Len(), func(i int) bool { return b.Times[i] >= 2*time.Second })
	prelude := b.Slice(0, cut)
	for _, c := range []struct {
		name string
		feed *core.ReadingBatch
	}{{"uncalibrated", &prelude}, {"calibrated", &b}} {
		t.Run(c.name, func(t *testing.T) {
			st := live.NewStream(live.Config{})
			if _, err := st.IngestBatch(c.feed); err != nil {
				t.Fatal(err)
			}
			if got, want := st.Calibrated(), c.feed == &b; got != want {
				t.Fatalf("Calibrated() = %v, want %v", got, want)
			}
			st.Release()
			st.Release()
			for _, use := range []struct {
				name string
				call func()
			}{
				{"IngestBatch", func() { st.IngestBatch(c.feed) }},
				{"Flush", func() { st.Flush() }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s on a released stream did not panic", use.name)
						}
					}()
					use.call()
				}()
			}
		})
	}
}
