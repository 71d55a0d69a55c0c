package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/replay"
	"rfipad/internal/tagmodel"
)

// TrialResult is one trial's typed outcome plus the telemetry that
// explains it.
type TrialResult struct {
	Trial int    `json:"trial"`
	Seed  int64  `json:"seed"`
	Want  string `json:"want"`
	Got   string `json:"got"`
	// Accuracy is the letter accuracy: 1 − edit distance ÷ len(Want).
	Accuracy float64 `json:"accuracy"`
	Exact    bool    `json:"exact"`
	Strokes  int     `json:"strokes"`
	// Calibrated reports whether the stream's static prelude completed
	// despite the degraded grid and faulted link.
	Calibrated bool `json:"calibrated"`
	DeadTags   int  `json:"dead_tags"`
	Reconnects int  `json:"reconnects"`
	// ReadingsServed is the capture size actually put on the wire.
	ReadingsServed int `json:"readings_served"`
	// ReadingsDegraded is how many readings the grid degradation
	// removed before serving.
	ReadingsDegraded int `json:"readings_degraded"`
	// ReadingsIngested is how many readings the trial stream's
	// recognizer accepted.
	ReadingsIngested int     `json:"readings_ingested"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	LatencyP95Ms     float64 `json:"latency_p95_ms"`
	// Anomaly classifies an anomalous trial ("accuracy_floor",
	// "panic", "stream_error"; empty for a healthy one).
	Anomaly string `json:"anomaly,omitempty"`
	Err     string `json:"err,omitempty"`
	// Obs is the trial's curated telemetry snapshot: the llrp_session,
	// engine, recognizer, and faultnet counters behind the headline
	// numbers.
	Obs map[string]float64 `json:"obs,omitempty"`
}

// ScenarioResult aggregates one cell.
type ScenarioResult struct {
	Cell
	Key    string `json:"key"`
	Trials int    `json:"trials"`
	// Accuracy is the mean letter accuracy across trials.
	Accuracy float64 `json:"accuracy"`
	// ExactRate is the fraction of trials recognizing the word exactly.
	ExactRate float64 `json:"exact_rate"`
	// RecoveryRate is the fraction of trials that calibrated and
	// finished without a terminal error — the stack's survival rate
	// under this cell's fault regime.
	RecoveryRate float64 `json:"recovery_rate"`
	// DropRate is the mean fraction of synthesized readings that never
	// reached the recognizer (degradation, link loss, rejection).
	DropRate       float64       `json:"drop_rate"`
	MeanReconnects float64       `json:"mean_reconnects"`
	MeanDeadTags   float64       `json:"mean_dead_tags"`
	LatencyP50Ms   float64       `json:"latency_p50_ms"`
	LatencyP95Ms   float64       `json:"latency_p95_ms"`
	Anomalies      int           `json:"anomalies"`
	TrialResults   []TrialResult `json:"trial_results"`
}

// Run expands the matrix and runs every trial through the real
// pipeline, Parallelism trials at a time. The returned results are in
// matrix order regardless of scheduling, and equal seeds yield equal
// accuracy fields at any parallelism.
func Run(cfg Config) ([]ScenarioResult, error) {
	cfg = cfg.withDefaults()
	var fl *trace.Flight
	if cfg.FlightDir != "" {
		var err error
		fl, err = trace.OpenFlight(cfg.FlightDir, obs.NewRegistry(), 0)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	cells := cfg.Matrix()
	// Users/Faults/Grids are indexed by position within the expanded
	// matrix; recover each cell's axis values from its index.
	nSpeeds, nFaults := len(cfg.HandSpeeds), len(cfg.Faults)
	nGrids, nLoads := len(cfg.Grids), len(cfg.EngineLoads)
	axes := func(i int) (hand.User, FaultProfile, GridDegradation) {
		rest := i / nLoads
		g := cfg.Grids[rest%nGrids]
		rest /= nGrids
		f := cfg.Faults[rest%nFaults]
		rest /= nFaults
		rest /= nSpeeds // the speed multiplier itself lives in the Cell
		return cfg.Users[rest], f, g
	}

	out := make([]ScenarioResult, len(cells))
	for i, c := range cells {
		out[i] = ScenarioResult{Cell: c, Key: c.Key(), Trials: cfg.Trials,
			TrialResults: make([]TrialResult, cfg.Trials)}
	}

	type job struct{ cell, trial int }
	jobs := make([]job, 0, len(cells)*cfg.Trials)
	for i := range cells {
		for k := 0; k < cfg.Trials; k++ {
			jobs = append(jobs, job{i, k})
		}
	}
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			user, fault, grid := axes(j.cell)
			tr, err := runTrial(cfg, cells[j.cell], j.cell, j.trial, user, fault, grid, fl)
			if err != nil {
				errs <- err
				return
			}
			out[j.cell].TrialResults[j.trial] = tr
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	for i := range out {
		aggregate(&out[i])
	}
	return out, nil
}

// trialSeed derives a trial's seed from the matrix position alone, so
// results are independent of scheduling order.
func trialSeed(base int64, cell, trial int) int64 {
	return base + int64(cell)*1_000_003 + int64(trial)*104_729 + 17
}

// runTrial runs one trial: synthesize the capture with the cell's
// writer, degrade the grid, serve it through a fault-injected link,
// and drain it through a session into a fresh engine alongside the
// cell's background load.
func runTrial(cfg Config, cell Cell, cellIdx, trial int, user hand.User,
	fault FaultProfile, grid GridDegradation, fl *trace.Flight) (TrialResult, error) {
	seed := trialSeed(cfg.Seed, cellIdx, trial)
	res := TrialResult{Trial: trial, Seed: seed, Want: cfg.Word}
	trialID := fmt.Sprintf("%s#%d", cell.Key(), trial)

	writer := user
	writer.Speed *= cell.HandSpeed
	capture, err := replay.SynthesizeUser(seed, cfg.Word, cfg.CalibDuration, writer)
	if err != nil {
		return res, fmt.Errorf("scenario %s: synthesize: %w", trialID, err)
	}
	served := degrade(capture, grid, rand.New(rand.NewSource(seed*31+7)))
	res.ReadingsServed = len(served)
	res.ReadingsDegraded = len(capture) - len(served)

	reg := obs.NewRegistry()
	faultInjected := func(kind string) {
		reg.Counter("faultnet_injected_total",
			"Faults injected into the scenario link, by kind.",
			obs.L("kind", kind)).Inc()
	}

	srv := llrp.NewServer(func() llrp.ReportSource {
		return replay.NewSource(served, replay.Options{Speed: cfg.ReplaySpeed, Obs: reg})
	})
	srv.IdleTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, fmt.Errorf("scenario %s: listen: %w", trialID, err)
	}
	link := fault.Net
	link.Seed = seed
	link.Observer = faultInjected
	link.FrameHeaderLen = llrp.HeaderLen
	link.FrameSize = llrp.FrameSize
	go srv.Serve(faultnet.Listen(inner, link))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
		Addr:              inner.Addr().String(),
		BackoffInitial:    5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		JitterSeed:        seed,
		KeepaliveInterval: 50 * time.Millisecond,
		IdleTimeout:       time.Second,
		WriteTimeout:      time.Second,
		// The breaker stays closed under the scenario profiles (every
		// reconnect succeeds); arming it wires flapping-reader dumps
		// into the same flight log as the accuracy anomalies.
		BreakerThreshold: 10,
		BreakerCooldown:  250 * time.Millisecond,
		Obs:              reg,
		Flight:           fl,
		FlightStream:     trialID,
	})
	if err != nil {
		return res, fmt.Errorf("scenario %s: dial: %w", trialID, err)
	}
	defer sess.Close()

	eng := engine.New(engine.Config{
		Workers: cfg.EngineWorkers,
		Stream:  live.Config{CalibDuration: cfg.CalibDuration},
		Obs:     reg,
		Flight:  fl,
	})
	var bg sync.WaitGroup
	for j := 0; j < cell.EngineLoad; j++ {
		bg.Add(1)
		go func(j int) {
			defer bg.Done()
			src := replay.NewSource(capture, replay.Options{Speed: cfg.ReplaySpeed, Obs: reg})
			// Background streams share the trial's undegraded capture;
			// their errors do not fail the trial, they only load the
			// shards the trial stream competes with.
			_ = eng.RunStream(engine.StreamID(fmt.Sprintf("bg-%02d", j)), pacedSource{src})
		}(j)
	}
	streamErr := eng.RunStream("trial", sess)
	bg.Wait()
	results := eng.Close()

	var sr engine.StreamResult
	for _, r := range results {
		if r.ID == "trial" {
			sr = r
		}
	}
	res.Got = sr.Letters
	res.Strokes = sr.Strokes
	res.Calibrated = sr.Calibrated
	res.DeadTags = sr.DeadTags
	res.ReadingsIngested = sr.Readings
	res.Reconnects = sess.Stats().Reconnects
	res.Accuracy = letterAccuracy(cfg.Word, sr.Letters)
	res.Exact = sr.Letters == cfg.Word
	if streamErr != nil {
		res.Err = streamErr.Error()
	} else if sr.Err != nil {
		res.Err = sr.Err.Error()
	}

	snap := reg.Snapshot()
	if p, ok := snap.Get("engine_event_latency_seconds", obs.L("stream", "trial")); ok && p.Count > 0 {
		res.LatencyP50Ms = p.Quantile(0.50) * 1e3
		res.LatencyP95Ms = p.Quantile(0.95) * 1e3
	}
	res.Obs = telemetry(snap)

	switch {
	case snap.Value("engine_stream_panics_total") > 0:
		res.Anomaly = "panic"
	case res.Err != "":
		res.Anomaly = "stream_error"
	case res.Accuracy < cfg.AccuracyFloor:
		res.Anomaly = "accuracy_floor"
	}
	if res.Anomaly != "" {
		fl.Record(trace.Dump{
			Trigger: "scenario_" + res.Anomaly,
			Stream:  trialID,
			Detail: fmt.Sprintf("accuracy %.2f (floor %.2f), got %q want %q, err %q",
				res.Accuracy, cfg.AccuracyFloor, res.Got, res.Want, res.Err),
		})
	}
	return res, nil
}

// pacedSource adapts a paced replay.Source to the engine's
// live.ReportSource.
type pacedSource struct{ src *replay.Source }

func (p pacedSource) NextReports() ([]llrp.TagReport, error) {
	batch, ok := p.src.Next()
	if !ok {
		return nil, llrp.ErrStreamEnded
	}
	return batch, nil
}

// degrade applies a grid degradation to a capture: all readings of
// DeadTags randomly chosen tags are removed, then each remaining
// reading is dropped with DropRate. Tag choice and drops draw only
// from rng, so a trial's degraded capture is a pure function of its
// seed.
func degrade(reports []llrp.TagReport, g GridDegradation, rng *rand.Rand) []llrp.TagReport {
	if g.DeadTags <= 0 && g.DropRate <= 0 {
		return reports
	}
	seen := map[tagmodel.EPC]bool{}
	var epcs []tagmodel.EPC
	for _, r := range reports {
		if !seen[r.EPC] {
			seen[r.EPC] = true
			epcs = append(epcs, r.EPC)
		}
	}
	sort.Slice(epcs, func(i, j int) bool {
		return string(epcs[i][:]) < string(epcs[j][:])
	})
	dead := map[tagmodel.EPC]bool{}
	if n := g.DeadTags; n > 0 {
		if n > len(epcs) {
			n = len(epcs)
		}
		for _, i := range rng.Perm(len(epcs))[:n] {
			dead[epcs[i]] = true
		}
	}
	out := make([]llrp.TagReport, 0, len(reports))
	for _, r := range reports {
		if dead[r.EPC] {
			continue
		}
		if g.DropRate > 0 && rng.Float64() < g.DropRate {
			continue
		}
		out = append(out, r)
	}
	return out
}

// telemetry curates a snapshot into the flat map each trial ships:
// session, engine, recognizer, replay, and faultnet series (runtime
// gauges and unrelated families stay out).
func telemetry(snap obs.Snapshot) map[string]float64 {
	prefixes := []string{
		"llrp_session_", "engine_", "rfipad_", "readings_",
		"faultnet_", "replay_batches", "obs_flight_",
	}
	out := map[string]float64{}
	for _, p := range snap.Points {
		keep := false
		for _, pre := range prefixes {
			if strings.HasPrefix(p.Name, pre) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		key := p.Name
		if len(p.Labels) > 0 {
			ks := make([]string, 0, len(p.Labels))
			for k := range p.Labels {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			parts := make([]string, 0, len(ks))
			for _, k := range ks {
				parts = append(parts, k+"="+p.Labels[k])
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		if p.Kind == obs.KindHistogram {
			out[key+":count"] = float64(p.Count)
		} else {
			out[key] = p.Value
		}
	}
	return out
}

// letterAccuracy scores recognized text against the ground truth:
// 1 − Levenshtein distance ÷ max(len(want), len(got)), clamped to 0.
func letterAccuracy(want, got string) float64 {
	if want == got {
		return 1
	}
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	if n == 0 {
		return 1
	}
	d := levenshtein(want, got)
	acc := 1 - float64(d)/float64(n)
	return math.Max(acc, 0)
}

func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// aggregate folds a cell's trials into its typed summary fields.
func aggregate(s *ScenarioResult) {
	n := float64(len(s.TrialResults))
	if n == 0 {
		return
	}
	var acc, exact, recov, drop, recon, deadT, p50, p95 float64
	var withLatency float64
	for _, t := range s.TrialResults {
		acc += t.Accuracy
		if t.Exact {
			exact++
		}
		if t.Calibrated && t.Err == "" {
			recov++
		}
		if synth := t.ReadingsServed + t.ReadingsDegraded; synth > 0 {
			// Duplicated frames can push ingested past served; that is
			// surplus, not loss, so the per-trial drop clamps at zero.
			drop += math.Max(0, 1-float64(t.ReadingsIngested)/float64(synth))
		}
		recon += float64(t.Reconnects)
		deadT += float64(t.DeadTags)
		if t.LatencyP50Ms > 0 {
			p50 += t.LatencyP50Ms
			p95 += t.LatencyP95Ms
			withLatency++
		}
		if t.Anomaly != "" {
			s.Anomalies++
		}
	}
	s.Accuracy = acc / n
	s.ExactRate = exact / n
	s.RecoveryRate = recov / n
	s.DropRate = drop / n
	s.MeanReconnects = recon / n
	s.MeanDeadTags = deadT / n
	if withLatency > 0 {
		s.LatencyP50Ms = p50 / withLatency
		s.LatencyP95Ms = p95 / withLatency
	}
}
