package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
)

// ladderTrace is the trace id of the ladder's spans.
const ladderTrace = ^uint32(0)

// ladderReps is how many times each rung replays the frames; rungs
// report the median.
const ladderReps = 3

// ladderStream is one capture cut into the frames its workload hands
// over.
type ladderStream struct {
	reps []llrp.TagReport
	fr   *framing
}

func (w *burst) ladderInput() []ladderStream {
	var out []ladderStream
	for i, c := range w.caps {
		out = append(out, ladderStream{c.reports, w.frames[i]})
	}
	return out
}

func (w *wire) ladderInput() []ladderStream {
	var out []ladderStream
	for i, d := range w.dense {
		out = append(out, ladderStream{d, w.frames[i]})
	}
	return out
}

// ladderInput replays each capture once, in the plates' 50 ms report
// windows (slot 0, empty windows skipped).
func (w *paced) ladderInput() []ladderStream {
	var out []ladderStream
	for _, c := range w.caps {
		f := &framing{}
		cuts := windowCuts(c.reports, 0, window)
		for k := 1; k < len(cuts); k++ {
			if cuts[k] > cuts[k-1] {
				f.add(c.reports, int(cuts[k]))
			}
		}
		out = append(out, ladderStream{c.reports, f})
	}
	return out
}

// ladder replays a workload's frames on one goroutine through the
// public calls of each layer in order, one rung per layer, and derives
// per-layer costs from the rungs and their differences.
type ladder struct {
	streams  []ladderStream
	readings int

	tr  *tracer
	out map[string]float64

	payloads [][][]byte
	decoded  [][][]llrp.TagReport
	cols     [][]*core.ReadingBatch
}

func runLadder(streams []ladderStream, tr *tracer) (map[string]float64, error) {
	if tr != nil {
		tr.limit.Store(int64(len(tr.spans)))
	}
	l := &ladder{streams: streams, tr: tr, out: map[string]float64{}}
	for _, s := range streams {
		l.readings += len(s.reps)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"llrp.encode", l.encode}, {"llrp.decode", l.decode}, {"live.append", l.appendCols},
		{"core.sanitize", l.sanitize}, {"core.recognizer", l.recognizer}, {"live.stream", l.stream},
		{"engine", l.engine}, {"llrp.session", l.session}, {"cluster", l.cluster},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", st.name, err)
		}
	}
	o := l.out
	o["engine.self_ns_per_reading"] = o["engine.ns_per_reading"] - o["live.append_ns_per_reading"] -
		o["core.sanitize_ns_per_reading"] - o["live.ingest_ns_per_reading"]
	o["cluster.self_ns_per_reading"] = o["cluster.ns_per_reading"] - o["engine.ns_per_reading"]
	return o, nil
}

// timed runs body ladderReps times and returns the median duration.
// body receives the repetition index.
func (l *ladder) timed(name string, body func(rep int) error) (time.Duration, error) {
	var ds []float64
	for rep := 0; rep < ladderReps; rep++ {
		id, start := l.tr.begin()
		t := time.Now()
		err := body(rep)
		ds = append(ds, float64(time.Since(t)))
		l.tr.endLabel(id, ladderTrace, 0, name, start, l.readings)
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(ds)), nil
}

func (l *ladder) perReading(d time.Duration) float64 { return float64(d) / float64(l.readings) }

func (l *ladder) encode() error {
	l.payloads = make([][][]byte, len(l.streams))
	bytes := 0
	d, err := l.timed("ladder.encode", func(rep int) error {
		for i, s := range l.streams {
			l.payloads[i] = l.payloads[i][:0]
			for k := range s.fr.ends {
				pl, err := llrp.EncodeReports(s.fr.frame(s.reps, k))
				if err != nil {
					return err
				}
				l.payloads[i] = append(l.payloads[i], pl)
				if rep == 0 {
					bytes += llrp.HeaderLen + len(pl)
				}
			}
		}
		return nil
	})
	l.out["llrp.encode_ns_per_reading"] = l.perReading(d)
	l.out["llrp.bytes_per_reading"] = float64(bytes) / float64(l.readings)
	return err
}

func (l *ladder) decode() error {
	var scratch []llrp.TagReport
	d, err := l.timed("ladder.decode", func(int) error {
		for _, pls := range l.payloads {
			for _, pl := range pls {
				var err error
				if scratch, err = llrp.DecodeReportsInto(scratch, pl); err != nil {
					return err
				}
			}
		}
		return nil
	})
	l.out["llrp.decode_ns_per_reading"] = l.perReading(d)
	// Keep one decoded copy of every frame for the rungs above.
	l.decoded = make([][][]llrp.TagReport, len(l.payloads))
	for i, pls := range l.payloads {
		for _, pl := range pls {
			reps, err := llrp.DecodeReports(pl)
			if err != nil {
				return err
			}
			l.decoded[i] = append(l.decoded[i], reps)
		}
	}
	return err
}

func (l *ladder) appendCols() error {
	cols := new(core.ReadingBatch)
	d, err := l.timed("ladder.append", func(int) error {
		for _, frames := range l.decoded {
			for _, reps := range frames {
				cols.Reset()
				live.AppendReports(cols, reps)
			}
		}
		return nil
	})
	l.out["live.append_ns_per_reading"] = l.perReading(d)
	l.cols = make([][]*core.ReadingBatch, len(l.decoded))
	for i, frames := range l.decoded {
		for _, reps := range frames {
			b := new(core.ReadingBatch)
			live.AppendReports(b, reps)
			l.cols[i] = append(l.cols[i], b)
		}
	}
	return err
}

func (l *ladder) sanitize() error {
	san := core.NewSanitizer(obs.NewRegistry())
	d, err := l.timed("ladder.sanitize", func(int) error {
		for _, frames := range l.cols {
			var newest time.Duration
			for _, b := range frames {
				n := b.Len()
				san.AdmitColumns(b, newest)
				if b.Len() != n {
					return errors.New("sanitizer rejected readings of a clean capture")
				}
				newest = b.Times[n-1]
			}
		}
		return nil
	})
	l.out["core.sanitize_ns_per_reading"] = l.perReading(d)
	return err
}

// recognizer drives core directly: Calibrate on each stream's prelude,
// then Recognizer.IngestBatch per frame and a final Flush, splitting
// ingest time between calls that emitted events and quiet ones.
func (l *ladder) recognizer() error {
	grid := core.Grid{Rows: 5, Cols: 5}
	reg := obs.NewRegistry()
	var calib, quiet, eventCalls time.Duration
	var quietReadings, nEventCalls, nCalib int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := l.timed("ladder.recognizer", func(int) error {
		for _, frames := range l.cols {
			var static []core.Reading
			var rec *core.Recognizer
			for _, b := range frames {
				i := 0
				for ; rec == nil && i < b.Len(); i++ {
					rd := b.Reading(i)
					static = append(static, rd)
					if rd.Time < prelude {
						continue
					}
					t := time.Now()
					cal, err := core.Calibrate(static, grid.NumTags())
					calib += time.Since(t)
					nCalib++
					if err != nil {
						return err
					}
					p := core.NewPipeline(grid, cal)
					p.Obs = reg
					rec = core.NewRecognizer(p, nil)
				}
				if i == b.Len() {
					continue
				}
				rest := b.Slice(i, b.Len())
				t := time.Now()
				evs := rec.IngestBatch(&rest)
				d := time.Since(t)
				if len(evs) > 0 {
					eventCalls += d
					nEventCalls++
				} else {
					quiet += d
					quietReadings += rest.Len()
				}
			}
			if rec == nil {
				return errors.New("stream never completed its calibration prelude")
			}
			t := time.Now()
			if evs := rec.Flush(frames[len(frames)-1].Times[frames[len(frames)-1].Len()-1]); len(evs) > 0 {
				eventCalls += time.Since(t)
				nEventCalls++
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	l.out["live.calibrate_ms_per_stream"] = float64(calib) / 1e6 / float64(max(nCalib, 1))
	l.out["core.ingest_ns_per_reading_quiet"] = float64(quiet) / float64(max(quietReadings, 1))
	l.out["core.ingest_us_per_event_call"] = float64(eventCalls) / 1e3 / float64(max(nEventCalls, 1))
	l.out["core.allocs_per_reading"] = float64(after.Mallocs-before.Mallocs) / float64(ladderReps*l.readings)
	snap := reg.Snapshot()
	for _, stage := range []string{core.StageSegment, core.StageDisturbance, core.StageClassify,
		core.StageDirection, core.StageGrammar} {
		p, _ := snap.Get("rfipad_stage_seconds", obs.L("stage", stage))
		l.out["core.stage."+stage+"_us"] = p.Value * 1e6 / float64(max(p.Count, 1))
	}
	return err
}

// stream drives live.Stream, the per-stream state machine an engine
// shard runs, then feeds one more untimed set of streams to measure the
// heap live streams retain.
func (l *ladder) stream() error {
	reg := obs.NewRegistry()
	d, err := l.timed("ladder.live_stream", func(int) error {
		_, err := l.feedStreams(reg)
		return err
	})
	if err != nil {
		return err
	}
	base := heapInUse()
	streams, err := l.feedStreams(reg)
	kb := (float64(heapInUse()) - float64(base)) / 1024 / float64(len(streams))
	runtime.KeepAlive(streams)
	l.out["live.ingest_ns_per_reading"] = l.perReading(d)
	l.out["live.heap_kb_per_stream"] = kb
	return err
}

// feedStreams feeds every stream's frames to a fresh live.Stream.
func (l *ladder) feedStreams(reg *obs.Registry) ([]*live.Stream, error) {
	var streams []*live.Stream
	for _, frames := range l.cols {
		st := live.NewStream(live.Config{Obs: reg})
		for _, b := range frames {
			if _, err := st.IngestBatch(b); err != nil {
				return nil, err
			}
		}
		streams = append(streams, st)
	}
	return streams, nil
}

// gapSource hands frames to engine.RunStream and accumulates the time
// the engine spends between pulls: intake of one batch.
type gapSource struct {
	s        ladderStream
	k        int
	returned time.Time
	gap      *time.Duration
	pulls    *int
}

func (g *gapSource) NextReports() ([]llrp.TagReport, error) {
	if !g.returned.IsZero() {
		*g.gap += time.Since(g.returned)
		*g.pulls++
	}
	defer func() { g.returned = time.Now() }()
	if g.k == len(g.s.fr.ends) {
		return nil, llrp.ErrStreamEnded
	}
	g.k++
	return g.s.fr.frame(g.s.reps, g.k-1), nil
}

func (g *gapSource) Stats() llrp.SessionStats { return llrp.SessionStats{} }

func (l *ladder) engine() error {
	var gap time.Duration
	pulls := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := l.timed("ladder.engine", func(int) error {
		reg := obs.NewRegistry()
		eng := engine.New(engine.Config{Workers: 1, Obs: reg, Stream: live.Config{Obs: reg}})
		for i, s := range l.streams {
			if err := eng.RunStream(engine.StreamID(fmt.Sprint("ladder-", i)),
				&gapSource{s: s, gap: &gap, pulls: &pulls}); err != nil {
				eng.Close()
				return err
			}
		}
		return checkResults(eng.Close(), l.readings)
	})
	runtime.ReadMemStats(&after)
	l.out["engine.ns_per_reading"] = l.perReading(d)
	l.out["engine.intake_us_per_batch"] = float64(gap) / 1e3 / float64(max(pulls, 1))
	l.out["engine.allocs_per_reading"] = float64(after.Mallocs-before.Mallocs) / float64(ladderReps*l.readings)
	return err
}

// checkResults verifies a rung's engines ingested every reading.
func checkResults(results []engine.StreamResult, want int) error {
	got := 0
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		got += r.Readings
	}
	if got != want {
		return fmt.Errorf("ingested %d of %d readings", got, want)
	}
	return nil
}

// frameReader serves a stream's frames as a reader daemon's source.
type frameReader struct {
	s ladderStream
	k int
}

func (f *frameReader) Next() ([]llrp.TagReport, bool) {
	if f.k == len(f.s.fr.ends) {
		return nil, false
	}
	f.k++
	return f.s.fr.frame(f.s.reps, f.k-1), true
}

// session drains each stream from an in-process reader daemon through
// a loopback llrp.Session and times each NextReports wait.
func (l *ladder) session() error {
	var wait time.Duration
	batches := 0
	d, err := l.timed("ladder.session", func(int) error {
		for _, s := range l.streams {
			if err := drainSession(s, &wait, &batches); err != nil {
				return err
			}
		}
		return nil
	})
	l.out["llrp.session_ns_per_reading"] = l.perReading(d)
	l.out["llrp.session_wait_us_per_batch"] = float64(wait) / 1e3 / float64(max(batches, 1))
	return err
}

func drainSession(s ladderStream, wait *time.Duration, batches *int) error {
	addr, stop, err := startReader(func() llrp.ReportSource { return &frameReader{s: s} })
	if err != nil {
		return err
	}
	defer stop()
	sess, err := llrp.DialSession(context.Background(), llrp.SessionConfig{
		Addr: addr, KeepaliveInterval: -1, MaxAttempts: 3, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer sess.Close()
	got := 0
	for {
		t := time.Now()
		b, err := sess.NextReports()
		*wait += time.Since(t)
		if errors.Is(err, llrp.ErrStreamEnded) {
			break
		}
		if err != nil {
			return err
		}
		*batches++
		got += len(b)
	}
	if got != len(s.reps) {
		return fmt.Errorf("session delivered %d of %d reports", got, len(s.reps))
	}
	return nil
}

// cluster pushes every frame through a one-node cluster, converting
// each to the []core.Reading payload Cluster.Push takes.
func (l *ladder) cluster() error {
	var push time.Duration
	pushed, retries := 0, 0
	d, err := l.timed("ladder.cluster", func(int) error {
		reg := obs.NewRegistry()
		c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: reg, Stream: live.Config{Obs: reg}})
		if _, err := c.AddNode("node-0"); err != nil {
			c.Close()
			return err
		}
		for i, s := range l.streams {
			id := engine.StreamID(fmt.Sprint("ladder-", i))
			for k := range s.fr.ends {
				reps := s.fr.frame(s.reps, k)
				batch := make([]core.Reading, len(reps))
				for j, rep := range reps {
					batch[j] = live.ReadingFromReport(rep)
				}
				for {
					t := time.Now()
					if c.Push(id, batch) {
						push += time.Since(t)
						pushed++
						break
					}
					retries++
					time.Sleep(50 * time.Microsecond) // as the cluster-burst feeder waits
				}
			}
			c.FlushStream(id)
		}
		var all []engine.StreamResult
		for _, rs := range c.Close() {
			all = append(all, rs...)
		}
		return checkResults(all, l.readings)
	})
	l.out["cluster.ns_per_reading"] = l.perReading(d)
	l.out["cluster.push_us_per_call"] = float64(push) / 1e3 / float64(max(pushed, 1))
	l.out["cluster.push_retry_frac"] = float64(retries) / float64(max(pushed+retries, 1))
	return err
}
