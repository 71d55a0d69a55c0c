package live_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/replay"
)

// recognitionDigest is the SHA-256 of every event recognized from the
// captures of TestRecognitionGoldenDigest. A change that alters any
// recognized value — a span, a motion, a letter, one bit of an image,
// a mask cell or a trough — changes it. A change meant to keep
// recognition bit-identical (a performance change) must leave it as it
// is; a change meant to alter recognition updates it and says why.
const recognitionDigest = "9fb3da0f63ceae41399f53f2311e0943c38d397a021422190e3765bb74b08b02"

// digestCaptures are the seeded captures the digest covers: letters of
// one to four strokes, in both directions of four of the six shapes.
var digestCaptures = []struct {
	seed int64
	word string
}{
	{2201, "THE"},
	{2202, "BOX"},
	{2203, "MUSIC"},
	{2204, "GRAVY"},
	{2205, "JOLT"},
}

// TestRecognitionGoldenDigest hashes every event recognized from a few
// seeded captures through the production stream path (calibrate from
// the prelude, then recognize), in two framings: 256-report batches
// and one report at a time. It also hashes the offline path on the
// same decoded columns — calibration from the prelude with
// CalibrateBatch and RecognizeStream over the writing part — so the
// offline entry points stay pinned too.
func TestRecognitionGoldenDigest(t *testing.T) {
	h := sha256.New()
	events := 0
	for _, c := range digestCaptures {
		reps, err := replay.Synthesize(c.seed, c.word, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{256, 1} {
			evs := streamEvents(t, reps, batch)
			writeInts(h, int64(len(evs)))
			for _, ev := range evs {
				hashEvent(h, ev)
			}
			events += len(evs)
		}
		res := offlineResults(t, reps)
		writeInts(h, int64(len(res)))
		for _, r := range res {
			writeInts(h, int64(r.Span.Start), int64(r.Span.End))
			hashMotion(h, r.Result)
		}
		events += len(res)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d events and offline results hashed", events)
	if got != recognitionDigest {
		t.Errorf("recognition digest = %s, want %s", got, recognitionDigest)
	}
}

// streamEvents feeds one capture to a fresh stream in batches of the
// given size and returns every event, flush included.
func streamEvents(t *testing.T, reps []llrp.TagReport, batch int) []core.Event {
	t.Helper()
	st := live.NewStream(live.Config{CalibDuration: 3 * time.Second})
	var out []core.Event
	var b core.ReadingBatch
	for i := 0; i < len(reps); i += batch {
		b.Reset()
		live.AppendReports(&b, reps[i:min(i+batch, len(reps))])
		evs, err := st.IngestBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, evs...)
	}
	return append(out, st.Flush()...)
}

// offlineResults decodes the capture, calibrates from its prelude and
// runs the offline segment-then-recognize path over the rest.
func offlineResults(t *testing.T, reps []llrp.TagReport) []core.BatchResult {
	t.Helper()
	grid := core.Grid{Rows: 5, Cols: 5}
	var static, writing core.ReadingBatch
	for _, rep := range reps {
		dst := &writing
		if rep.Timestamp <= 3*time.Second {
			dst = &static
		}
		live.AppendReports(dst, []llrp.TagReport{rep})
	}
	cal, err := core.CalibrateBatch(&static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	end := writing.Times[writing.Len()-1] + time.Second
	return core.NewPipeline(grid, cal).RecognizeStream(&writing, nil, 3*time.Second, end)
}

func writeInts(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func writeFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func writeBool(h hash.Hash, v bool) {
	if v {
		writeInts(h, 1)
	} else {
		writeInts(h, 0)
	}
}

func hashEvent(h hash.Hash, ev core.Event) {
	writeInts(h, int64(ev.Kind), int64(ev.At), int64(ev.Span.Start), int64(ev.Span.End),
		int64(ev.Letter))
	writeBool(h, ev.LetterOK)
	hashMotion(h, ev.Stroke)
	writeInts(h, int64(len(ev.Strokes)))
	for _, so := range ev.Strokes {
		writeInts(h, int64(so.Motion.Shape), int64(so.Motion.Dir))
		writeFloats(h, so.Box.X0, so.Box.Y0, so.Box.X1, so.Box.Y1, so.CenterX, so.CenterY)
	}
}

// hashMotion covers every field of a MotionResult.
func hashMotion(h hash.Hash, r core.MotionResult) {
	writeInts(h, int64(r.Motion.Shape), int64(r.Motion.Dir))
	writeBool(h, r.Ok)
	writeBool(h, r.DirectionOK)
	writeFloats(h, r.Box.X0, r.Box.Y0, r.Box.X1, r.Box.Y1, r.CenterX, r.CenterY,
		r.TravelDir.X, r.TravelDir.Y)
	if r.Image != nil {
		writeInts(h, int64(r.Image.Grid.Rows), int64(r.Image.Grid.Cols), int64(len(r.Image.Vals)))
		writeFloats(h, r.Image.Vals...)
	} else {
		writeInts(h, -1)
	}
	writeInts(h, int64(len(r.Mask)))
	for _, m := range r.Mask {
		writeBool(h, m)
	}
	writeInts(h, int64(len(r.Troughs)))
	for _, tr := range r.Troughs {
		writeInts(h, int64(tr.TagIndex), int64(tr.At))
		writeFloats(h, tr.DepthDB)
	}
}
