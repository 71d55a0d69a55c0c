package core

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"rfipad/internal/obs"
)

// newFreshRecognizer builds a recognizer on new buffers, so its
// capacities are its own stream's, not those of a recognizer released
// earlier in the process.
func newFreshRecognizer(p *Pipeline) *Recognizer {
	r := NewRecognizer(p, nil)
	r.recBuffers = new(recBuffers)
	r.reset(r.seg.FrameLen, p.Cal)
	return r
}

// syntheticQuiet produces a quiet (no-hand) reading stream covering
// [from, to): every tag reports each step with small phase noise around
// its own static mean.
func syntheticQuiet(grid Grid, from, to, step time.Duration, rng *rand.Rand) []Reading {
	n := grid.NumTags()
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64() * 6.28
	}
	var out []Reading
	for t := from; t < to; t += step {
		for i := 0; i < n; i++ {
			out = append(out, Reading{
				TagIndex: i,
				Time:     t + time.Duration(i)*time.Millisecond/10,
				Phase:    base[i] + rng.NormFloat64()*0.01,
				RSS:      -55,
			})
		}
	}
	return out
}

// TestRecognizerTrimBoundsAndReusesBuffer pins the history-trim
// contract on a long quiet stream: the retained window stays bounded
// near historyKeep, every trim lands on a frame boundary (the cache's
// frame grid must never shift), the columns' capacity stays within
// twice the largest live window, and once the buffer reaches its
// high-water capacity, compaction reuses the backing array instead of
// re-growing a fresh one.
func TestRecognizerTrimBoundsAndReusesBuffer(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(5))
	static := syntheticQuiet(grid, 0, 3*time.Second, 10*time.Millisecond, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	rec := newFreshRecognizer(NewPipeline(grid, cal))

	stream := syntheticQuiet(grid, 0, 60*time.Second, 10*time.Millisecond, rng)
	var capAt30, maxLive int
	for _, rd := range stream {
		ingestOne(rec, rd)
		maxLive = max(maxLive, rec.hist.Len()-rec.head)
		if capAt30 == 0 && rd.Time >= 30*time.Second {
			capAt30 = cap(rec.hist.Times)
		}
	}
	if got := cap(rec.hist.Times); got > 2*maxLive {
		t.Errorf("history capacity %d is more than twice the largest live window, %d readings", got, maxLive)
	}

	if rec.bufStart == 0 {
		t.Fatal("60 s of quiet stream never trimmed the buffer")
	}
	if rec.bufStart%rec.seg.FrameLen != 0 {
		t.Errorf("bufStart %v is not frame-aligned (frame %v)", rec.bufStart, rec.seg.FrameLen)
	}
	// The live window should hover near historyKeep; a couple of extra
	// seconds of slack covers trim cadence.
	live := rec.hist.Times[rec.head:]
	span := rec.clock.now - rec.bufStart
	if limit := historyKeep + 4*time.Second; span > limit {
		t.Errorf("retained window %v exceeds %v", span, limit)
	}
	for _, at := range live {
		if at < rec.bufStart {
			t.Fatalf("live window holds reading at %v before bufStart %v", at, rec.bufStart)
		}
	}
	if got := cap(rec.hist.Times); got != capAt30 {
		t.Errorf("buffer capacity kept growing after warm-up: %d at 30s, %d at 60s — compaction is not reusing the backing array", capAt30, got)
	}

	// windowRange must agree with the trimmed state (end is exclusive,
	// so nudge past the newest reading).
	lo, hi := rec.windowRange(rec.bufStart, rec.clock.now+time.Millisecond)
	if lo != rec.head || hi-lo != len(live) {
		t.Errorf("window range over the full span is [%d, %d), live window is [%d, %d)", lo, hi, rec.head, rec.head+len(live))
	}
}

// TestRecognizerTrimToAlignsAndCompacts drives trimTo and reserve
// directly: a cut inside the history aligns down to a frame boundary
// and advances the head to the first reading at or past it, a
// backwards cut is a no-op, and the room a trim frees is reused. Once
// the columns are full, the live window moves to the front of the same
// arrays when it then fills at most two thirds of them, and to new
// arrays of twice its size when it fills more.
func TestRecognizerTrimToAlignsAndCompacts(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(6))
	static := syntheticQuiet(grid, 0, 3*time.Second, 10*time.Millisecond, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	rec := newFreshRecognizer(NewPipeline(grid, cal))
	for _, rd := range syntheticQuiet(grid, 0, 10*time.Second, 10*time.Millisecond, rng) {
		ingestOne(rec, rd)
	}

	rec.trimTo(6*time.Second + 50*time.Millisecond)
	if rec.bufStart != 6*time.Second {
		t.Errorf("cut not aligned down to a frame boundary: bufStart %v, want 6s", rec.bufStart)
	}
	if live := rec.hist.Times[rec.head:]; len(live) == 0 || live[0] < rec.bufStart ||
		rec.head > 0 && rec.hist.Times[rec.head-1] >= rec.bufStart {
		t.Errorf("head %d is not the first reading at or past the cut %v", rec.head, rec.bufStart)
	}
	before := rec.bufStart
	rec.trimTo(2 * time.Second) // backwards: must be a no-op
	if rec.bufStart != before {
		t.Errorf("backwards trim moved bufStart from %v to %v", before, rec.bufStart)
	}

	// reserve on hand-built columns: 30 slots, 20 of them dead.
	rec.hist.Reset()
	rec.hist.regrow(0, 30)
	for i := range 30 {
		rec.hist.Append(time.Duration(i), float64(i), 0, int32(i))
	}
	rec.head = 20
	base := &rec.hist.Times[0]
	rec.reserve(5) // 15 of 30 slots live: compact in place
	if &rec.hist.Times[0] != base || cap(rec.hist.Times) != 30 || rec.head != 0 || rec.hist.Len() != 10 {
		t.Fatalf("compaction: %d of %d slots from head %d, same arrays %v; want 10 of 30 from 0 in place",
			rec.hist.Len(), cap(rec.hist.Times), rec.head, &rec.hist.Times[0] == base)
	}
	for i := 10; i < 30; i++ {
		rec.hist.Append(time.Duration(20+i), 0, 0, 0)
	}
	rec.head = 3
	rec.reserve(10) // 27 + 10 of 30 slots: twice that, in new arrays
	if &rec.hist.Times[0] == base || rec.head != 0 || rec.hist.Len() != 27 {
		t.Fatalf("regrow: %d readings from head %d, same arrays %v; want 27 from 0 in new arrays",
			rec.hist.Len(), rec.head, &rec.hist.Times[0] == base)
	}
	for _, c := range []int{cap(rec.hist.Times), cap(rec.hist.Phases), cap(rec.hist.RSS), cap(rec.hist.TagIndices)} {
		if c != 74 {
			t.Errorf("regrown column capacity %d, want 74", c)
		}
	}
	if rec.hist.Times[0] != 23 || rec.hist.Times[26] != 49 || rec.hist.TagIndices[0] != 23 {
		t.Errorf("regrow moved the wrong readings: times %v…%v, first tag %d",
			rec.hist.Times[0], rec.hist.Times[26], rec.hist.TagIndices[0])
	}
}

// TestRecognizerFootprintFollowsHorizons pins what a stream retains.
// At every poll of a seeded multi-letter capture, no history reading
// is older than the earliest one a poll may still read: the start of a
// span still to be recognized (past both emittedEnd − 2 frames and
// bufStart + minPreContext) or the late horizon (maxRegression behind
// the newest reading), whichever is earlier, and never before bufStart.
// After every reading, at most maxRegression/FrameLen + 2 frames hold
// accumulators. Every 50th reading is delivered again 900 ms later,
// inside the late horizon: each copy must still meet its original in
// the history and be dropped as a duplicate. At the end the test pins
// the history's capacity and the accumulator frame count, which no
// noise can move.
func TestRecognizerFootprintFollowsHorizons(t *testing.T) {
	cal, readings := multiLetterCapture(t)
	p := NewPipeline(Grid{Rows: 5, Cols: 5}, cal)
	p.Obs = obs.NewRegistry()
	rec := newFreshRecognizer(p)
	frameLen := rec.seg.FrameLen
	maxAcc := int(maxRegression/frameLen) + 2
	polls, events := 0, 0
	feed := func(rd Reading) {
		pf := rec.lastPollFrame
		events += len(ingestOne(rec, rd))
		c := &rec.cache
		if acc := c.frames() - c.done; acc > maxAcc {
			t.Fatalf("at %v: %d frames hold accumulators, want at most %d", rec.clock.now, acc, maxAcc)
		}
		if rec.lastPollFrame == pf {
			return
		}
		polls++
		keep := max(min(max(rec.emittedEnd-2*frameLen, rec.bufStart+minPreContext), rec.clock.now-maxRegression), rec.bufStart)
		if live := rec.hist.Times[rec.head:]; len(live) > 0 && live[0] < keep {
			t.Fatalf("poll at %v retains a reading at %v, older than the horizon %v", rec.clock.now, live[0], keep)
		}
	}
	var again []Reading
	for i, rd := range readings {
		for len(again) > 0 && again[0].Time+900*time.Millisecond <= rd.Time {
			feed(again[0])
			again = again[1:]
		}
		feed(rd)
		if i%50 == 0 {
			again = append(again, rd)
		}
	}
	if polls < 300 || events < 5 || rec.bufStart == 0 {
		t.Fatalf("%d polls, %d events, bufStart %v: the capture did not exercise the recognizer", polls, events, rec.bufStart)
	}
	snap := p.Obs.Snapshot()
	dupes := snap.Value("rfipad_readings_dropped_total", obs.L("reason", "duplicate"))
	late := snap.Value("rfipad_readings_dropped_total", obs.L("reason", "late"))
	if want := float64((len(readings)+49)/50 - len(again)); dupes != want || late != 0 {
		t.Errorf("%v duplicates and %v late readings dropped, want %v and 0", dupes, late, want)
	}
	const wantCap, wantAccFrames = 9582, 11
	if got := cap(rec.hist.Times); got != wantCap {
		t.Errorf("history capacity %d, want %d", got, wantCap)
	}
	if got := rec.cache.frames() - rec.cache.done; got != wantAccFrames {
		t.Errorf("%d frames hold accumulators, want %d", got, wantAccFrames)
	}
}

// clockFuzzCapture is the stream the clock fuzz perturbs: a letter of
// two strokes after calibration, 9 s on a 5×5 grid.
func clockFuzzCapture(t testing.TB) (*Calibration, []Reading) {
	t.Helper()
	const n = 25
	centres, sigmas := evenCentres(n), constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 51), n)
	if err != nil {
		t.Fatal(err)
	}
	strokes := []Span{{3 * time.Second, 4 * time.Second}, {5 * time.Second, 6200 * time.Millisecond}}
	return cal, synthLetterStream(n, strokes, 9*time.Second, centres, sigmas, 52)
}

// clockRun is what one delivery of a stream gave: its events, and the
// readings its clock dropped as late and as ahead.
type clockRun struct {
	events      []Event
	late, ahead float64
}

// clockOutlierRuns decodes an edited delivery of base from data, feeds
// it to one recognizer as it is and to another with the lone outliers
// data inserts, and returns both runs and how many outliers, ahead and
// behind, the second one got.
//
// data's first byte seeds the batch sizes (1 to 64 readings). Each
// following 4 bytes are one op at a base reading (2 bytes of
// position), at most 64 of them: it arrives up to 2.55 s late, is
// delivered again up to 2.55 s later, gains a reading of another tag at
// the same instant, an out-of-range tag stamped up to 1.28 s either
// side of it rides along, a reading stamped up to 5.1 s ahead does,
// the stream opens a gap of 1 to 3.55 s before it (a real clock jump),
// or a lone outlier follows its delivery, stamped more than
// maxRegression behind the clock or hours ahead of it. Two outliers
// ahead lie hours apart: two that agreed with each other would be a
// clock jump, not glitches.
//
// An outlier ahead is lone where the edited stream's clock holds
// nothing after the reading it follows, or holds one reading that the
// next delivery settles, as it settles a jump's first reading: a clock
// holds at most maxHeld readings, so a second glitch there would push
// out one a later reading may still confirm. One outlier follows a
// reading at most. An outlier behind is lone anywhere.
func clockOutlierRuns(t testing.TB, cal *Calibration, base []Reading, data []byte) (clean, dirty clockRun, ahead, behind int) {
	t.Helper()
	n := cal.NumTags()
	var seed byte
	if len(data) > 0 {
		seed, data = data[0], data[1:]
	}
	type op struct {
		pos       int
		kind, arg byte
	}
	var ops []op
	for ; len(data) >= 4 && len(ops) < 64; data = data[4:] {
		ops = append(ops, op{int(binary.BigEndian.Uint16(data)) % len(base), data[2] % 8, data[3]})
	}
	shifted := slices.Clone(base)
	for _, o := range ops {
		if o.kind == 5 {
			for k := o.pos; k < len(shifted); k++ {
				shifted[k].Time += maxRegression + time.Duration(o.arg)*10*time.Millisecond
			}
		}
	}
	type delivery struct {
		at   time.Duration
		rd   Reading
		base int // the base reading it delivers, or -1 for an edit's
	}
	del := make([]delivery, len(shifted))
	for i, rd := range shifted {
		del[i] = delivery{rd.Time, rd, i}
	}
	for _, o := range ops {
		d := time.Duration(o.arg) * 10 * time.Millisecond
		rd := shifted[o.pos]
		switch o.kind {
		case 0:
			del[o.pos].at += d
		case 1:
			del = append(del, delivery{rd.Time + d, rd, -1})
		case 2:
			rd.TagIndex = (rd.TagIndex + 1 + int(o.arg)) % n
			rd.Phase = float64(o.arg) / 41
			del = append(del, delivery{rd.Time, rd, -1})
		case 3:
			rd.TagIndex = []int{-1, n, n + int(o.arg)}[o.arg%3]
			rd.Time = max(rd.Time+time.Duration(int(o.arg)-128)*10*time.Millisecond, 0)
			del = append(del, delivery{shifted[o.pos].Time, rd, -1})
		case 4:
			rd.Time += 2 * d
			del = append(del, delivery{shifted[o.pos].Time, rd, -1})
		}
	}
	slices.SortStableFunc(del, func(a, b delivery) int { return cmp.Compare(a.at, b.at) })

	// The edited stream's clock after each delivery, and what it holds.
	var clk Clock
	nows, held := make([]time.Duration, len(del)), make([]int, len(del))
	slot := make([]int, len(shifted))
	for k, d := range del {
		stepAll(&clk, batchOf([]Reading{d.rd}))
		nows[k], held[k] = clk.now, clk.held.Len()
		if d.base >= 0 {
			slot[d.base] = k
		}
	}
	outlier := make(map[int]Reading)
	for _, o := range ops {
		k := slot[o.pos]
		if _, dup := outlier[k]; dup || o.kind < 6 {
			continue
		}
		rd := del[k].rd
		if o.kind == 6 {
			if held[k] > 1 || held[k] == 1 && k+1 < len(del) && held[k+1] != 0 {
				continue
			}
			ahead++
			rd.Time = nows[k] + time.Duration(ahead)*time.Hour + time.Duration(o.arg)*time.Second
		} else {
			rd.Time = nows[k] - maxRegression - time.Millisecond - time.Duration(o.arg)*10*time.Millisecond
			behind++
		}
		outlier[k] = rd
	}

	feed := func(rds []Reading) clockRun {
		reg := obs.NewRegistry()
		p := NewPipeline(Grid{Rows: 5, Cols: 5}, cal)
		p.Obs = reg
		rec := NewRecognizer(p, nil)
		sizes := rand.New(rand.NewSource(int64(seed)))
		var run clockRun
		var b ReadingBatch
		for i := 0; i < len(rds); {
			j := min(i+1+sizes.Intn(64), len(rds))
			b.Reset()
			for _, rd := range rds[i:j] {
				b.AppendReading(rd)
			}
			run.events = append(run.events, rec.IngestBatch(&b)...)
			i = j
		}
		run.events = append(run.events, rec.Flush(rec.clock.now+time.Second)...)
		snap := reg.Snapshot()
		run.late = snap.Value("rfipad_readings_dropped_total", obs.L("reason", "late"))
		run.ahead = snap.Value("rfipad_readings_dropped_total", obs.L("reason", "ahead"))
		return run
	}
	rds := make([]Reading, 0, len(del)+len(outlier))
	for _, d := range del {
		rds = append(rds, d.rd)
	}
	clean = feed(rds)
	rds = rds[:0]
	for k, d := range del {
		rds = append(rds, d.rd)
		if rd, ok := outlier[k]; ok {
			rds = append(rds, rd)
		}
	}
	return clean, feed(rds), ahead, behind
}

// FuzzClockLoneOutliersCostNothing pins the stream clock's rule on the
// recognizer: a post-calibration stream with arbitrary regressions,
// duplicates, equal times, out-of-range tags, readings stamped ahead
// and real clock jumps emits deep-equal events with and without lone
// outliers, however far ahead or behind they are stamped, and wherever
// they land, between a jump's first two readings included. Each
// outlier is counted once: as ahead or as late.
func FuzzClockLoneOutliersCostNothing(f *testing.F) {
	cal, base := clockFuzzCapture(f)
	op := func(pos uint16, kind, arg byte) []byte { return []byte{byte(pos >> 8), byte(pos), kind, arg} }
	// Regressions of 0.3 to 1.5 s, duplicates, equal times and strays
	// within 0.2 s through both strokes, then a reading 0.8 s ahead
	// after them; jumps of 2 s before the first stroke and 3 s after
	// the second, each with an outlier between its first two readings;
	// and outliers ahead and behind through the strokes.
	seed0 := []byte{9}
	for k := range 48 {
		seed0 = append(seed0, op(uint16(2400+97*k), byte(k%4), byte(30+k*5%120))...)
	}
	seed0 = append(seed0, op(6500, 4, 40)...)
	seed0 = append(seed0, slices.Concat(op(1500, 5, 100), op(1500, 6, 0), op(6800, 5, 200), op(6800, 7, 3),
		op(6801, 6, 9), op(3333, 6, 2), op(4444, 7, 0), op(5555, 7, 255))...)
	seeds := [][]byte{
		seed0,
		{1},
		append([]byte{63}, slices.Concat(op(3000, 0, 150), op(3001, 0, 99), op(3500, 1, 101),
			op(3500, 2, 7), op(4000, 3, 255), op(4200, 3, 0), op(6000, 4, 255))...),
		// Outliers next to a jump: just before its first reading, right
		// after it, and right after its second.
		append([]byte{17}, slices.Concat(op(4000, 5, 0), op(3999, 6, 1), op(4000, 6, 2), op(4001, 7, 4),
			op(5000, 5, 255), op(5001, 6, 7))...),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	clean, dirty, ahead, behind := clockOutlierRuns(f, cal, base, seed0)
	if len(clean.events) == 0 || clean.late == 0 || ahead == 0 || behind == 0 || dirty.ahead == 0 {
		f.Fatalf("the first seed emits %d events, drops %v readings as late and inserts %d outliers ahead and %d behind: it exercises nothing",
			len(clean.events), clean.late, ahead, behind)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clean, dirty, ahead, behind := clockOutlierRuns(t, cal, base, data)
		if !reflect.DeepEqual(dirty.events, clean.events) {
			t.Fatalf("outliers changed the events\nwith:    %+v\nwithout: %+v", dirty.events, clean.events)
		}
		if got := dirty.ahead - clean.ahead; got != float64(ahead) {
			t.Errorf("%d outliers ahead, %v more readings dropped as ahead", ahead, got)
		}
		if got := dirty.late - clean.late; got != float64(behind) {
			t.Errorf("%d outliers behind, %v more readings dropped as late", behind, got)
		}
	})
}
