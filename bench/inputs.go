package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// words is the text the captures write: capture i writes word i mod 8,
// so every run covers all 26 letters.
var words = strings.Fields("THE QUICK BROWN FOX JUMPS OVER LAZY DOG")

const (
	// prelude is the static calibration prelude every capture opens with.
	prelude = 3 * time.Second
	// lapGap is the silence inserted before a re-stamped lap, the same
	// gap replay.Synthesize leaves before each letter.
	lapGap = 2 * time.Second
	// window is a reader's report window: it sends what it read every
	// 50 ms of stream time.
	window = 50 * time.Millisecond
)

// capture is one synthesized writing session as the reader reports it.
type capture struct {
	word    string
	reports []llrp.TagReport
}

// synthesize builds n captures from seed on GOMAXPROCS goroutines.
// Capture i writes words[i%8] with simulator seed seed*1000+i. Every
// report is brought to a fixed point of the wire codec, so the engine
// paths see exactly the values the LLRP path delivers.
func synthesize(seed int64, n int) ([]capture, error) {
	caps := make([]capture, n)
	errs := make([]error, n)
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				word := words[i%len(words)]
				reps, err := replay.Synthesize(seed*1000+int64(i), word, prelude)
				if err == nil {
					reps, err = quantize(reps)
				}
				caps[i], errs[i] = capture{word: word, reports: reps}, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return caps, nil
}

// quantize round-trips reports through the LLRP payload codec until they
// stop changing. One pass is not a fixed point: re-encoding a decoded
// phase truncates it one step lower for a few percent of readings, so
// a stream served from once-decoded reports would differ from its
// reference.
func quantize(reps []llrp.TagReport) ([]llrp.TagReport, error) {
	for pass := 0; pass < 4; pass++ {
		out, err := codecPass(reps)
		if err != nil {
			return nil, err
		}
		if slices.Equal(out, reps) {
			return out, nil
		}
		reps = out
	}
	return nil, errors.New("quantize: the LLRP codec did not reach a fixed point in 4 passes")
}

func codecPass(reps []llrp.TagReport) ([]llrp.TagReport, error) {
	out := make([]llrp.TagReport, 0, len(reps))
	for i := 0; i < len(reps); i += 4096 {
		pl, err := llrp.EncodeReports(reps[i:min(i+4096, len(reps))])
		if err != nil {
			return nil, err
		}
		dec, err := llrp.DecodeReports(pl)
		if err != nil {
			return nil, err
		}
		out = append(out, dec...)
	}
	return out, nil
}

// withLaps returns the capture followed by laps−1 copies of its writing
// part (everything after the prelude), each re-stamped one period after
// the previous, so one stream writes the word laps times but calibrates
// once. starts[L] is the stream time lap L begins; letters are
// attributed to laps by it.
func withLaps(reps []llrp.TagReport, laps int) (out []llrp.TagReport, starts []time.Duration) {
	first := sort.Search(len(reps), func(i int) bool { return reps[i].Timestamp > prelude })
	period := lapPeriod(reps)
	out = make([]llrp.TagReport, 0, len(reps)+(laps-1)*(len(reps)-first))
	out = append(out, reps...)
	starts = []time.Duration{0}
	for l := 1; l < laps; l++ {
		shift := time.Duration(l) * period
		starts = append(starts, prelude+shift)
		for _, r := range reps[first:] {
			r.Timestamp += shift
			out = append(out, r)
		}
	}
	return out, starts
}

// lapPeriod is the stream time one re-stamped lap adds.
func lapPeriod(reps []llrp.TagReport) time.Duration {
	return reps[len(reps)-1].Timestamp - prelude + lapGap
}

// densify interleaves copies time-offset replicas of a capture into one
// strictly time-increasing stream: the wire-limit shape, where hundreds
// of readings land in each report window. The per-copy shift exceeds
// the capture's inter-read gap, so the merged stream round-robins tags
// as a reader's inventory loop does. Collisions are nudged forward by
// the wire's 1 µs resolution, since equal timestamps on one tag would be
// dropped as duplicates.
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

// framing cuts a stream into the frames one producer hands over: frame
// k is reports[ends[k-1]:ends[k]], and last[k] is its newest timestamp,
// which maps an event's At reading back to the frame that carried it.
type framing struct {
	ends []int
	last []time.Duration
}

func (f *framing) frame(reps []llrp.TagReport, k int) []llrp.TagReport {
	lo := 0
	if k > 0 {
		lo = f.ends[k-1]
	}
	return reps[lo:f.ends[k]]
}

func (f *framing) add(reps []llrp.TagReport, end int) {
	f.ends = append(f.ends, end)
	f.last = append(f.last, reps[end-1].Timestamp)
}

// frameOf returns the frame holding the reading stamped at, or false
// when at lies past the stream (a flush-time event).
func (f *framing) frameOf(at time.Duration) (int, bool) {
	k := sort.Search(len(f.last), func(i int) bool { return f.last[i] >= at })
	return k, k < len(f.last)
}

// fixedFrames cuts reps into frames of size reports.
func fixedFrames(reps []llrp.TagReport, size int) *framing {
	f := &framing{}
	for i := size; i < len(reps)+size; i += size {
		f.add(reps, min(i, len(reps)))
	}
	return f
}

// replayFrames cuts reps the way replay.Source batches them: each frame
// holds the reports younger than its first report plus the window.
func replayFrames(reps []llrp.TagReport, w time.Duration) *framing {
	f := &framing{}
	for pos := 0; pos < len(reps); {
		cut := reps[pos].Timestamp + w
		for pos < len(reps) && reps[pos].Timestamp < cut {
			pos++
		}
		f.add(reps, pos)
	}
	return f
}

// windowCuts cuts reps into a reader's report windows at phase + k·w
// (k ≥ 1): window k is reps[cuts[k]:cuts[k+1]] and may be empty while
// the plate is quiet.
func windowCuts(reps []llrp.TagReport, phase, w time.Duration) []int32 {
	cuts := []int32{0}
	end := reps[len(reps)-1].Timestamp
	pos := 0
	for b := phase + w; ; b += w {
		for pos < len(reps) && reps[pos].Timestamp < b {
			pos++
		}
		cuts = append(cuts, int32(pos))
		if b > end {
			return cuts
		}
	}
}

// windowOf is the report window holding stream time at.
func windowOf(at, phase, w time.Duration) int {
	if at < phase+w {
		return 0
	}
	return int((at - phase) / w)
}

// lapTexts recognizes letters per lap: a letter belongs to the lap its
// last stroke ended in. It is filled from one stream's events, in order.
type lapTexts struct {
	starts     []time.Duration
	lastStroke time.Duration
	texts      []string
}

func newLapTexts(starts []time.Duration) lapTexts {
	return lapTexts{starts: starts, texts: make([]string, len(starts))}
}

func (l *lapTexts) add(ev core.Event) {
	switch ev.Kind {
	case core.StrokeDetected:
		l.lastStroke = ev.Span.End
	case core.LetterDeduced:
		lap := sort.Search(len(l.starts), func(i int) bool { return l.starts[i] > l.lastStroke }) - 1
		l.texts[max(lap, 0)] += string(ev.Letter)
	}
}

func (l *lapTexts) String() string { return strings.Join(l.texts, "|") }

// referenceAll runs reference over every stream; starts holds each
// stream's lap starts, or is nil for single-lap streams.
func referenceAll(streams [][]llrp.TagReport, starts [][]time.Duration) ([]string, error) {
	refs := make([]string, len(streams))
	for i, s := range streams {
		st := []time.Duration{0}
		if starts != nil {
			st = starts[i]
		}
		ref, err := reference(s, st)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	return refs, nil
}

// reference recognizes a stream on one goroutine with live.Stream, the
// single-stream state machine every engine shard runs: what each plate
// fed the stream must recognize, lap by lap, on any path.
func reference(reps []llrp.TagReport, starts []time.Duration) (string, error) {
	st := live.NewStream(live.Config{Obs: obs.NewRegistry()})
	texts := newLapTexts(starts)
	b := core.GetBatch()
	defer core.PutBatch(b)
	for i := 0; i < len(reps); i += 256 {
		b.Reset()
		live.AppendReports(b, reps[i:min(i+256, len(reps))])
		evs, err := st.IngestBatch(b)
		if err != nil {
			return "", fmt.Errorf("reference: %w", err)
		}
		for _, ev := range evs {
			texts.add(ev)
		}
	}
	for _, ev := range st.Flush() {
		texts.add(ev)
	}
	return texts.String(), nil
}
