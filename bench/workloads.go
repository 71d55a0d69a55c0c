package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// config sizes every workload. defaultConfig is the benchmark; the
// harness tests shrink it.
type config struct {
	seed    int64
	seconds time.Duration
	// captures is how many writing captures set-up synthesizes.
	captures int
	// plates, speed, slots and joinSpread shape plates-paced.
	plates     int
	speed      float64
	slots      int
	joinSpread time.Duration
	// burstPlates is the plate count of replay-burst and cluster-burst.
	burstPlates int
	// sessions and copies shape wire-dense.
	sessions int
	copies   int
	// maxPasses caps closed-loop passes (0: repeat for seconds).
	maxPasses int
}

func defaultConfig(seed int64, seconds time.Duration) config {
	return config{
		seed: seed, seconds: seconds, captures: len(words),
		plates: 160, speed: 8, slots: 25, joinSpread: 2500 * time.Millisecond,
		burstPlates: 16, sessions: 2, copies: 16,
	}
}

// workload is a prepared workload: set-up has built its inputs, and run
// measures it once. run may be called more than once.
type workload interface {
	// references recognizes every input stream on one goroutine; it
	// runs once, after the timed set-up.
	references() error
	run(r *runCtx) (*outcome, error)
	// ladderInput is the frames the single-goroutine ladder replays.
	ladderInput() []ladderStream
}

type workloadSpec struct {
	name, why string
	setup     func(config) (workload, error)
}

var workloads = []workloadSpec{
	{"plates-paced", "open loop: 160 live plates paced 8x, small report windows; per-batch intake, mailbox and stroke recognition set latency", setupPaced},
	{"replay-burst", "closed loop: 16 plates unpaced in 256-report batches, fresh engine per pass; recognizer and calibration compute dominate", setupBurst},
	{"wire-dense", "closed loop: 2 loopback LLRP sessions of 16x densified captures; decode, framing, sanitize and columnar ingest dominate", setupWire},
	{"cluster-burst", "closed loop: replay-burst inputs pushed through a 2-node in-process cluster; its ratio to replay-burst is the cluster's cost", setupCluster},
}

// runCtx is the state one measured run shares across its passes.
type runCtx struct {
	cfg   config
	t0    time.Time
	tr    *tracer
	tally tally
	// sampleEvery traces one plate in sampleEvery (paced runs have too
	// many pulls to keep every span).
	sampleEvery int
	heapBase    uint64
	host        *hostClock
}

func newRunCtx(cfg config, tr *tracer, host *hostClock) *runCtx {
	r := &runCtx{cfg: cfg, t0: time.Now(), tr: tr, sampleEvery: 1, host: host}
	if tr != nil {
		r.t0 = tr.t0
	}
	r.heapBase = heapInUse()
	return r
}

func (r *runCtx) now() int64 { return int64(time.Since(r.t0)) }

// tracerFor returns the tracer for a plate, or nil when it is not
// sampled.
func (r *runCtx) tracerFor(plate int) *tracer {
	if r.tr == nil || plate%r.sampleEvery != 0 {
		return nil
	}
	return r.tr
}

func (r *runCtx) onEvent(byID map[engine.StreamID]*plate, pass int) func(engine.StreamID, core.Event) {
	return func(id engine.StreamID, ev core.Event) {
		p := byID[id]
		tr := r.tracerFor(p.index)
		sid, start := tr.begin()
		p.onEvent(ev, r.now())
		tr.end(sid, traceID(pass, p.index), 0, spanOnEvent, start, 0)
	}
}

// heapInUse is the live heap after two full collections (the second
// frees what the first moved into sync.Pool victim caches).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedMB waits until the engines have ingested want readings, then
// returns the heap the system retains above the run's baseline.
func (r *runCtx) retainedMB(reg *obs.Registry, want int) (float64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for reg.Snapshot().Value("engine_readings_total") < float64(want) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("engine ingested %v of %d readings within 60 s",
				reg.Snapshot().Value("engine_readings_total"), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return (float64(heapInUse()) - float64(r.heapBase)) / (1 << 20), nil
}

// opener builds plate i's report source, recording its spans under
// parent; release frees what the source holds.
type opener func(i int, tr *tracer, parent uint32) (src live.ReportSource, release func(), err error)

// runStream drives one plate through engine.RunStream under a span.
func (r *runCtx) runStream(eng *engine.Engine, p *plate, pass int, passSpan uint32, open opener) error {
	tr := r.tracerFor(p.index)
	id, start := tr.begin()
	defer func() { tr.end(id, traceID(pass, p.index), passSpan, spanRunStream, start, len(p.reps)) }()
	src, closeSrc, err := open(p.index, tr, id)
	if err != nil {
		return err
	}
	defer closeSrc()
	return eng.RunStream(p.id, src)
}

// fold adds a pass's plates and results to the tally.
func (r *runCtx) fold(plates []*plate, results []engine.StreamResult, refs []string, caps []capture) {
	byID := make(map[engine.StreamID]*engine.StreamResult, len(results))
	for i := range results {
		byID[results[i].ID] = &results[i]
	}
	for _, p := range plates {
		r.tally.addPlate(p, caps[p.capture].word, refs[p.capture], byID[p.id])
	}
}

// frameSource hands a plate's precut frames to the engine as fast as it
// pulls them, stamping each frame's handoff time.
type frameSource struct {
	r      *runCtx
	p      *plate
	fr     *framing
	sent   []int64
	k      int
	tr     *tracer
	parent uint32
	trace  uint32
}

func (s *frameSource) NextReports() ([]llrp.TagReport, error) {
	id, start := s.tr.begin()
	if s.k == len(s.fr.ends) {
		s.tr.end(id, s.trace, s.parent, spanSourcePull, start, 0)
		return nil, llrp.ErrStreamEnded
	}
	b := s.fr.frame(s.p.reps, s.k)
	s.sent[s.k] = s.r.now()
	s.k++
	s.tr.end(id, s.trace, s.parent, spanSourcePull, start, len(b))
	return b, nil
}

func (s *frameSource) Stats() llrp.SessionStats { return llrp.SessionStats{} }

// closedLoop repeats pass until the run's seconds are spent (at least
// once) and turns the passes into an outcome. Only the first pass
// measures retained heap; its measurement pause is excluded from the
// pass time it returns.
func (r *runCtx) closedLoop(pass func(n int, heap bool) (time.Duration, int, float64, error)) (*outcome, error) {
	out := &outcome{}
	var rates, lat50s, lat95s []float64
	seen := 0
	for n := 0; n == 0 || (time.Since(r.t0) < r.cfg.seconds && (r.cfg.maxPasses == 0 || n < r.cfg.maxPasses)); n++ {
		d, rd, heap, err := pass(n, n == 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			out.heapMB = heap
		}
		rates = append(rates, float64(rd)/d.Seconds())
		r.host.sample(1)
		if lat := latencies(r.tally.lat[seen:]); n > 0 && len(lat) > 0 {
			a, _ := percentile(lat, 50)
			b, _ := percentile(lat, 95)
			lat50s, lat95s = append(lat50s, a), append(lat95s, b)
		}
		seen = len(r.tally.lat)
	}
	out.tally = r.tally
	// The first pass warms caches and measures the heap; the rest are
	// timed. The mean of their best tenth is the rate the system sustains
	// when a shared machine's neighbours leave it alone, which varies far
	// less between runs than the mean of all passes. A saturated pass's
	// latency is its backlog over its rate, so latency takes the matching
	// best tenth of the per-pass percentiles. All three are then scaled to
	// nominal host speed.
	if len(rates) > 1 {
		rates = rates[1:]
	}
	out.readingsPerS = bestTenth(rates, true)
	q1, med, q3 := quartiles(rates)
	out.diag = append(out.diag,
		metric{"bench.pass_rate_median", med, "1/s", len(rates)},
		metric{"bench.pass_rate_spread", (q3 - q1) / med, "ratio", len(rates)})
	if len(lat95s) > 0 {
		out.lat50 = bestTenth(lat50s, false)
		out.lat95 = bestTenth(lat95s, false)
		q1, med, q3 = quartiles(lat95s)
		out.diag = append(out.diag,
			metric{"bench.pass_latency_p95_median_ms", med, "ms", len(lat95s)},
			metric{"bench.pass_latency_p95_spread", (q3 - q1) / med, "ratio", len(lat95s)})
	} else { // a single pass (toy runs)
		out.lat50, _ = percentile(latencies(r.tally.lat), 50)
		out.lat95, _ = percentile(latencies(r.tally.lat), 95)
	}
	out.diag = append(out.diag,
		metric{"bench.unscaled_readings_per_s", out.readingsPerS, "1/s", len(rates)},
		metric{"bench.unscaled_event_latency_p50_ms", out.lat50, "ms", len(lat50s)},
		metric{"bench.unscaled_event_latency_p95_ms", out.lat95, "ms", len(lat95s)})
	s := r.host.slowdown()
	out.readingsPerS *= s
	out.lat50 /= s
	out.lat95 /= s
	return out, nil
}

// ---- replay-burst ----

type burst struct {
	cfg    config
	caps   []capture
	frames []*framing
	refs   []string
}

func setupBurst(cfg config) (workload, error) {
	caps, err := synthesize(cfg.seed, cfg.captures)
	if err != nil {
		return nil, err
	}
	w := &burst{cfg: cfg, caps: caps}
	for _, c := range caps {
		w.frames = append(w.frames, fixedFrames(c.reports, 256))
	}
	return w, nil
}

func (w *burst) references() (err error) {
	streams := make([][]llrp.TagReport, len(w.caps))
	for i, c := range w.caps {
		streams[i] = c.reports
	}
	w.refs, err = referenceAll(streams, nil)
	return err
}

// plates builds a pass's plates: plate i replays capture i mod captures.
func (w *burst) plates(pass int) ([]*plate, [][]int64) {
	plates := make([]*plate, w.cfg.burstPlates)
	sent := make([][]int64, len(plates))
	for i := range plates {
		c := i % len(w.caps)
		sent[i] = make([]int64, len(w.frames[c].ends))
		plates[i] = &plate{
			id: engine.StreamID(fmt.Sprintf("plate-%02d", i)), index: i, capture: c,
			reps: w.caps[c].reports, texts: newLapTexts([]time.Duration{0}),
			handoff: sentLog(w.frames[c], sent[i]),
		}
	}
	return plates, sent
}

func (w *burst) run(r *runCtx) (*outcome, error) {
	return r.closedLoop(func(n int, heap bool) (time.Duration, int, float64, error) {
		plates, sent := w.plates(n)
		return r.enginePass(n, plates, heap, w.refs, w.caps,
			func(i int, tr *tracer, parent uint32) (live.ReportSource, func(), error) {
				return &frameSource{r: r, p: plates[i], fr: w.frames[plates[i].capture], sent: sent[i],
					tr: tr, parent: parent, trace: traceID(n, i)}, func() {}, nil
			})
	})
}

// enginePass runs one closed-loop pass through a fresh engine: one
// RunStream goroutine per plate, then Close. It returns the pass time,
// the readings offered, and the retained heap when asked.
func (r *runCtx) enginePass(n int, plates []*plate, heap bool, refs []string, caps []capture,
	open opener) (time.Duration, int, float64, error) {
	reg := obs.NewRegistry()
	byID := make(map[engine.StreamID]*plate, len(plates))
	offered := 0
	for _, p := range plates {
		byID[p.id] = p
		offered += len(p.reps)
	}
	passSpan, passStart := r.tr.begin()
	start := time.Now()
	eng := engine.New(engine.Config{Obs: reg, Stream: live.Config{Obs: reg}, OnEvent: r.onEvent(byID, n)})
	errs := make([]error, len(plates))
	var wg sync.WaitGroup
	for i, p := range plates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.runStream(eng, p, n, passSpan, open)
		}()
	}
	wg.Wait()
	var heapMB float64
	var paused time.Duration
	var herr error
	if heap {
		ps := time.Now()
		heapMB, herr = r.retainedMB(reg, offered)
		paused = time.Since(ps)
	}
	results := eng.Close()
	d := time.Since(start) - paused
	r.tr.end(passSpan, traceID(n, 0xffff), 0, spanPass, passStart, offered)
	if err := errors.Join(append(errs, herr)...); err != nil {
		return 0, 0, 0, err
	}
	r.tally.addMailbox(reg)
	r.fold(plates, results, refs, caps)
	return d, offered, heapMB, nil
}

// ---- wire-dense ----

type wire struct {
	cfg    config
	caps   []capture
	dense  [][]llrp.TagReport
	frames []*framing
	refs   []string
}

func setupWire(cfg config) (workload, error) {
	caps, err := synthesize(cfg.seed, cfg.captures)
	if err != nil {
		return nil, err
	}
	w := &wire{cfg: cfg, caps: caps}
	for _, c := range caps {
		d := densify(c.reports, cfg.copies)
		w.dense = append(w.dense, d)
		w.frames = append(w.frames, replayFrames(d, window))
	}
	return w, nil
}

func (w *wire) references() (err error) {
	w.refs, err = referenceAll(w.dense, nil)
	return err
}

// sessionSource is an llrp.Session as the engine's source, stamping
// each frame's handoff time.
type sessionSource struct {
	frameSource
	sess *llrp.Session
}

func (s *sessionSource) NextReports() ([]llrp.TagReport, error) {
	id, start := s.tr.begin()
	b, err := s.sess.NextReports()
	if err == nil {
		if s.k >= len(s.fr.ends) || len(b) != len(s.fr.frame(s.p.reps, s.k)) {
			err = fmt.Errorf("wire-dense: session frame %d has %d reports, expected framing differs", s.k, len(b))
		} else {
			s.sent[s.k] = s.r.now()
			s.k++
		}
	}
	s.tr.end(id, s.trace, s.parent, spanSessionRead, start, len(b))
	return b, err
}

func (s *sessionSource) Stats() llrp.SessionStats { return s.sess.Stats() }

// readers starts one in-process reader daemon per capture, each serving
// its densified capture unpaced. stop closes them all.
func (w *wire) readers() (addrs []string, stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	reg := obs.NewRegistry()
	for _, d := range w.dense {
		addr, s, err := startReader(func() llrp.ReportSource {
			return replay.NewSource(d, replay.Options{Batch: window, Speed: 1e9, Obs: reg})
		})
		if err != nil {
			stop()
			return nil, nil, err
		}
		addrs, stops = append(addrs, addr), append(stops, s)
	}
	return addrs, stop, nil
}

// startReader serves factory from an in-process reader daemon on a
// loopback port. stop closes it and waits for its goroutines.
func startReader(factory llrp.SourceFactory) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := llrp.NewServer(factory)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns net.ErrClosed once stop closes the server
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

func (w *wire) run(r *runCtx) (*outcome, error) {
	addrs, stop, err := w.readers()
	if err != nil {
		return nil, err
	}
	defer stop()
	return r.closedLoop(func(n int, heap bool) (time.Duration, int, float64, error) {
		plates := make([]*plate, w.cfg.sessions)
		sent := make([][]int64, len(plates))
		for i := range plates {
			c := (n*len(plates) + i) % len(w.dense)
			sent[i] = make([]int64, len(w.frames[c].ends))
			plates[i] = &plate{
				id: engine.StreamID(fmt.Sprintf("reader-%d", i)), index: i, capture: c,
				reps: w.dense[c], texts: newLapTexts([]time.Duration{0}),
				handoff: sentLog(w.frames[c], sent[i]),
			}
		}
		return r.enginePass(n, plates, heap, w.refs, w.caps,
			func(i int, tr *tracer, parent uint32) (live.ReportSource, func(), error) {
				p := plates[i]
				sess, err := llrp.DialSession(context.Background(), llrp.SessionConfig{
					Addr: addrs[p.capture], KeepaliveInterval: -1, MaxAttempts: 3, Obs: obs.NewRegistry(),
				})
				if err != nil {
					return nil, nil, err
				}
				src := &sessionSource{sess: sess, frameSource: frameSource{r: r, p: p,
					fr: w.frames[p.capture], sent: sent[i], tr: tr, parent: parent, trace: traceID(n, i)}}
				return src, func() { sess.Close() }, nil
			})
	})
}

// ---- cluster-burst ----

type clusterBurst struct{ burst }

func setupCluster(cfg config) (workload, error) {
	w, err := setupBurst(cfg)
	if err != nil {
		return nil, err
	}
	return &clusterBurst{*w.(*burst)}, nil
}

func (w *clusterBurst) run(r *runCtx) (*outcome, error) {
	var st pushStats
	out, err := r.closedLoop(func(n int, heap bool) (time.Duration, int, float64, error) {
		plates, sent := w.plates(n)
		return r.clusterPass(n, plates, sent, w.frames, heap, &st, w.refs, w.caps)
	})
	if err != nil {
		return nil, err
	}
	out.diag = append(out.diag, metric{"bench.push_retry_frac", float64(st.retries) / float64(st.pushes), "ratio", st.pushes})
	return out, nil
}

// pushStats counts Cluster.Push calls and the shed ones retried.
type pushStats struct{ pushes, retries int }

// clusterPass feeds one pass through a fresh 2-node cluster with one
// worker per node. One feeder round-robins Cluster.Push over the plates;
// a shed push is retried on that plate's next turn.
func (r *runCtx) clusterPass(n int, plates []*plate, sent [][]int64, frames []*framing, heap bool,
	st *pushStats, refs []string, caps []capture) (d time.Duration, offered int, heapMB float64, err error) {
	reg := obs.NewRegistry()
	byID := make(map[engine.StreamID]*plate, len(plates))
	for _, p := range plates {
		byID[p.id] = p
		offered += len(p.reps)
	}
	onEvent := r.onEvent(byID, n)
	passSpan, passStart := r.tr.begin()
	start := time.Now()
	c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: reg, Stream: live.Config{Obs: reg},
		OnEvent: func(_ cluster.NodeID, id engine.StreamID, ev core.Event) { onEvent(id, ev) }})
	for _, node := range []cluster.NodeID{"node-0", "node-1"} {
		if _, err := c.AddNode(node); err != nil {
			c.Close()
			return 0, 0, 0, err
		}
	}
	next := make([]int, len(plates))
	pending := make([][]core.Reading, len(plates))
	for left := len(plates); left > 0; {
		progress := false
		for i, p := range plates {
			fr := frames[p.capture]
			if next[i] == len(fr.ends) {
				continue
			}
			if pending[i] == nil {
				reps := fr.frame(p.reps, next[i])
				batch := make([]core.Reading, len(reps))
				for j, rep := range reps {
					batch[j] = live.ReadingFromReport(rep)
				}
				pending[i] = batch
				// The frame is handed over when first offered: a shed
				// push is backpressure, and its retry wait counts.
				sent[i][next[i]] = r.now()
			}
			tr := r.tracerFor(p.index)
			id, ps := tr.begin()
			ok := c.Push(p.id, pending[i])
			tr.end(id, traceID(n, p.index), passSpan, spanClusterPush, ps, len(pending[i]))
			st.pushes++
			if !ok {
				st.retries++
				continue
			}
			progress = true
			pending[i] = nil
			if next[i]++; next[i] == len(fr.ends) {
				c.FlushStream(p.id)
				left--
			}
		}
		if !progress {
			// Every mailbox is full: give the workers the processor.
			time.Sleep(50 * time.Microsecond)
		}
	}
	var paused time.Duration
	var herr error
	if heap {
		ps := time.Now()
		heapMB, herr = r.retainedMB(reg, offered)
		paused = time.Since(ps)
	}
	results := c.Close()
	d = time.Since(start) - paused
	r.tr.end(passSpan, traceID(n, 0xffff), 0, spanPass, passStart, offered)
	if herr != nil {
		return 0, 0, 0, herr
	}
	var all []engine.StreamResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	r.tally.addMailbox(reg)
	r.fold(plates, all, refs, caps)
	return d, offered, heapMB, nil
}

// ---- plates-paced ----

type paced struct {
	cfg     config
	caps    []capture
	streams [][]llrp.TagReport // per capture, the capture written laps times
	starts  [][]time.Duration  // per capture, lap start times
	cuts    [][]int32          // per capture×slot, report-window cuts
	join    []int              // per plate, join round
	refs    []string
}

// tick is the generator's step: a report window's wall time divided
// among the slots.
func (w *paced) tick() time.Duration {
	return time.Duration(float64(window) / w.cfg.speed / float64(w.cfg.slots))
}

func setupPaced(cfg config) (workload, error) {
	caps, err := synthesize(cfg.seed, cfg.captures)
	if err != nil {
		return nil, err
	}
	w := &paced{cfg: cfg, caps: caps}
	schedule := func(d time.Duration) time.Duration { return time.Duration(float64(d) / cfg.speed) }
	for _, c := range caps {
		last := c.reports[len(c.reports)-1].Timestamp
		// Every plate of a capture writes the same number of laps, the
		// most that end before the run's deadline on the schedule clock
		// for the last plate to join.
		laps := 1
		if room := cfg.seconds - cfg.joinSpread - schedule(last); room > 0 {
			laps += int(room / schedule(lapPeriod(c.reports)))
		}
		s, st := withLaps(c.reports, laps)
		w.streams = append(w.streams, s)
		w.starts = append(w.starts, st)
		for slot := 0; slot < cfg.slots; slot++ {
			w.cuts = append(w.cuts, windowCuts(s, w.phase(slot), window))
		}
	}
	// Plates join in a seeded order spread over joinSpread, in rounds of
	// one report window's wall time.
	rounds := int(float64(cfg.joinSpread) / (float64(window) / cfg.speed))
	order := rand.New(rand.NewSource(cfg.seed)).Perm(cfg.plates)
	w.join = make([]int, cfg.plates)
	for p, rank := range order {
		w.join[p] = rank * rounds / cfg.plates
	}
	return w, nil
}

// dueNs is when plate p's report window win falls due, in ns after the
// generator starts: the generator walks one tick per slot, so a window
// round spans every slot, and a plate's windows start the round after
// it joins.
func (w *paced) dueNs(p, win int) int64 {
	return int64((w.join[p]+win+1)*w.cfg.slots+p%w.cfg.slots) * int64(w.tick())
}

// phase is the stream-time offset of a slot's window grid.
func (w *paced) phase(slot int) time.Duration {
	return window * time.Duration(slot) / time.Duration(w.cfg.slots)
}

func (w *paced) references() (err error) {
	w.refs, err = referenceAll(w.streams, w.starts)
	return err
}

// pacedSource delivers a plate's report windows as the generator
// releases them. It ends its stream only after hold closes, so the run
// can measure the heap with every stream live.
type pacedSource struct {
	r        *runCtx
	reps     []llrp.TagReport
	cuts     []int32
	released atomic.Int32
	next     int
	bell     chan struct{} // capacity 1: a doorbell, never a queue
	hold     <-chan struct{}
	drained  *atomic.Int32
	tr       *tracer
	trace    uint32
	parent   uint32
}

func (s *pacedSource) NextReports() ([]llrp.TagReport, error) {
	id, start := s.tr.begin()
	for {
		if s.next < int(s.released.Load()) {
			lo, hi := s.cuts[s.next], s.cuts[s.next+1]
			s.next++
			if lo == hi {
				continue
			}
			s.tr.end(id, s.trace, s.parent, spanSourcePull, start, int(hi-lo))
			return s.reps[lo:hi], nil
		}
		if s.next == len(s.cuts)-1 {
			s.drained.Add(1)
			<-s.hold
			s.tr.end(id, s.trace, s.parent, spanSourcePull, start, 0)
			return nil, llrp.ErrStreamEnded
		}
		<-s.bell
	}
}

func (s *pacedSource) Stats() llrp.SessionStats { return llrp.SessionStats{} }

func (w *paced) run(r *runCtx) (*outcome, error) {
	cfg := w.cfg
	r.sampleEvery = max(1, cfg.plates/40)
	tick := w.tick()
	slots := cfg.slots
	reg := obs.NewRegistry()
	plates := make([]*plate, cfg.plates)
	srcs := make([]*pacedSource, cfg.plates)
	bySlot := make([][]int, slots)
	byID := make(map[engine.StreamID]*plate, cfg.plates)
	hold := make(chan struct{})
	var drained atomic.Int32
	// genStart is when the generator's schedule begins, in the run
	// clock events are stamped with. It is written before the first
	// window is released, so every event that reads it sees it.
	var genStart int64
	offered := 0
	for i := range plates {
		c, slot := i%len(w.caps), i%slots
		s := w.streams[c]
		phase, lastTs := w.phase(slot), s[len(s)-1].Timestamp
		plates[i] = &plate{
			id: engine.StreamID(fmt.Sprintf("plate-%03d", i)), index: i, capture: c,
			reps: s, texts: newLapTexts(w.starts[c]),
			handoff: func(at time.Duration) (int64, bool) {
				if at > lastTs {
					return 0, false
				}
				return genStart + w.dueNs(i, windowOf(at, phase, window)), true
			},
		}
		srcs[i] = &pacedSource{r: r, reps: s, cuts: w.cuts[c*slots+slot],
			bell: make(chan struct{}, 1), hold: hold, drained: &drained}
		bySlot[slot] = append(bySlot[slot], i)
		byID[plates[i].id] = plates[i]
		offered += len(s)
	}

	passSpan, passStart := r.tr.begin()
	eng := engine.New(engine.Config{Obs: reg, Stream: live.Config{Obs: reg}, OnEvent: r.onEvent(byID, 0)})
	errs := make([]error, len(plates))
	var wg sync.WaitGroup
	for i, p := range plates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.runStream(eng, p, 0, passSpan, func(i int, tr *tracer, parent uint32) (live.ReportSource, func(), error) {
				srcs[i].tr, srcs[i].trace, srcs[i].parent = tr, traceID(0, i), parent
				return srcs[i], func() {}, nil
			})
		}()
	}

	// The generator: one goroutine walking the schedule tick by tick. It
	// never blocks on the system, so a stall shows as latency measured
	// from each window's due time, not as a slower schedule.
	begin := time.Now()
	genStart = int64(begin.Sub(r.t0))
	var late []float64
	pending := len(plates)
	for t := 0; pending > 0; t++ {
		due := begin.Add(time.Duration(t) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slot, round := t%slots, t/slots
		sent := false
		for _, i := range bySlot[slot] {
			win := round - w.join[i] - 1
			src := srcs[i]
			if win < 0 || win >= len(src.cuts)-1 {
				continue
			}
			src.released.Store(int32(win + 1))
			select {
			case src.bell <- struct{}{}:
			default:
			}
			sent = true
			if win == len(src.cuts)-2 {
				pending--
			}
		}
		if sent {
			late = append(late, float64(time.Since(due))/1e6)
		}
	}
	var herr error
	for deadline := time.Now().Add(60 * time.Second); int(drained.Load()) < len(plates); {
		if time.Now().After(deadline) {
			herr = fmt.Errorf("plates-paced: %d of %d streams drained within 60 s", drained.Load(), len(plates))
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(begin)
	var heapMB float64
	if herr == nil {
		heapMB, herr = r.retainedMB(reg, offered)
	}
	close(hold)
	wg.Wait()
	results := eng.Close()
	r.tr.end(passSpan, traceID(0, 0xffff), 0, spanPass, passStart, offered)
	if err := errors.Join(append(errs, herr)...); err != nil {
		return nil, err
	}
	r.tally.addMailbox(reg)
	r.fold(plates, results, w.refs, w.caps)
	p99, _ := percentile(late, 99)
	out := &outcome{
		tally:        r.tally,
		readingsPerS: float64(offered) / elapsed.Seconds(),
		heapMB:       heapMB,
		diag:         []metric{{"bench.gen_late_p99_ms", p99, "ms", len(late)}},
	}
	out.lat50, out.lat95 = latencyPercentiles(out.lat)
	return out, nil
}
