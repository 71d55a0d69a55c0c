// Package replay turns a fixed, time-sorted capture of tag reports
// into a paced, seekable llrp.ReportSource: the backbone of
// rfipad-readerd (which replays a synthesized RFIPad session in place
// of real Impinj hardware) and of end-to-end resilience tests. A
// Source supports llrp's stream-resume protocol — a reconnecting
// client's StartROSpec carries its last-seen timestamp and the server
// seeks the fresh Source there, replaying a small overlap window
// instead of the whole capture.
package replay

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rfipad"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
)

// DefaultResumeOverlap is how far before a resume point replay
// restarts: ties on the resume timestamp are guaranteed delivery and
// the pipeline deduplicates the overlap.
const DefaultResumeOverlap = 250 * time.Millisecond

// Options tunes a Source.
type Options struct {
	// Batch is the report batching window (default 50 ms).
	Batch time.Duration
	// Speed is the replay speed factor relative to real time (default
	// 1; higher is faster).
	Speed float64
	// ResumeOverlap is how far before a Seek target replay restarts
	// (default DefaultResumeOverlap).
	ResumeOverlap time.Duration
	// OnComplete, when set, runs once when the capture is exhausted.
	OnComplete func()
	// Obs selects the metrics registry pacing telemetry lands in (nil
	// = obs.Default()).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Batch <= 0 {
		o.Batch = 50 * time.Millisecond
	}
	if o.Speed <= 0 {
		o.Speed = 1
	}
	if o.ResumeOverlap <= 0 {
		o.ResumeOverlap = DefaultResumeOverlap
	}
	return o
}

// Source replays a capture in paced batches. It implements
// llrp.SeekableSource.
type Source struct {
	reports []llrp.TagReport
	opts    Options

	// pacingLag records how far behind the scaled-real-time schedule
	// each batch was served; a saturated writer or a slow consumer
	// shows up here long before reports are visibly late downstream.
	pacingLag *obs.Histogram
	batches   *obs.Counter

	mu       sync.Mutex
	pos      int
	started  time.Time
	base     time.Duration
	finished bool
}

// NewSource builds a paced source over reports, which must be sorted
// by timestamp (as Synthesize returns).
func NewSource(reports []llrp.TagReport, opts Options) *Source {
	opts = opts.withDefaults()
	r := obs.Or(opts.Obs)
	return &Source{
		reports: reports,
		opts:    opts,
		pacingLag: r.Histogram("replay_pacing_lag_seconds",
			"How far behind its scaled-real-time schedule each replayed batch was served.", nil),
		batches: r.Counter("replay_batches_total",
			"Report batches served by replay sources."),
	}
}

// Next implements llrp.ReportSource: it waits until the next batch's
// stream time has elapsed in scaled wall time, then returns it.
func (s *Source) Next() ([]llrp.TagReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= len(s.reports) {
		if !s.finished {
			s.finished = true
			if s.opts.OnComplete != nil {
				s.opts.OnComplete()
			}
		}
		return nil, false
	}
	if s.started.IsZero() {
		s.started = time.Now()
	}
	// Pace relative to the seek base so a resumed replay does not
	// re-serve the pre-resume wait.
	cut := s.reports[s.pos].Timestamp + s.opts.Batch
	wait := time.Duration(float64(cut-s.base)/s.opts.Speed) - time.Since(s.started)
	if wait > 0 {
		s.mu.Unlock()
		time.Sleep(wait)
		s.mu.Lock()
	} else {
		s.pacingLag.ObserveDuration(-wait)
	}
	start := s.pos
	for s.pos < len(s.reports) && s.reports[s.pos].Timestamp < cut {
		s.pos++
	}
	s.batches.Inc()
	return s.reports[start:s.pos], true
}

// Seek implements llrp.SeekableSource: replay restarts at the first
// report after resumeFrom − ResumeOverlap, so a reconnecting client
// sees a short duplicate window instead of a gap.
func (s *Source) Seek(resumeFrom time.Duration) {
	target := resumeFrom - s.opts.ResumeOverlap
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pos = sort.Search(len(s.reports), func(i int) bool {
		return s.reports[i].Timestamp > target
	})
	if s.pos < len(s.reports) {
		s.base = s.reports[s.pos].Timestamp
	}
	s.started = time.Time{}
}

// Synthesize builds a full RFIPad capture: a static prelude for
// calibration, then, 2 s after its last report, the word as
// rfipad.Simulator.WriteWord writes it (seeded by seed), with a quiet
// gap between letters so the online recognizer can close each one.
// The result is sorted by timestamp.
func Synthesize(seed int64, word string, prelude time.Duration) ([]llrp.TagReport, error) {
	return SynthesizeUser(seed, word, prelude, rfipad.User{})
}

// SynthesizeUser is Synthesize with an explicit writer profile — the
// scenario harness sweeps hand speed and per-user diversity through
// it. The zero User selects the median volunteer.
func SynthesizeUser(seed int64, word string, prelude time.Duration, writer rfipad.User) ([]llrp.TagReport, error) {
	sim, err := rfipad.NewSimulator(rfipad.SimulatorConfig{Seed: seed, Writer: writer})
	if err != nil {
		return nil, err
	}
	if prelude <= 0 {
		prelude = 3 * time.Second
	}
	reports := sim.CollectStatic(prelude)
	letters, _, err := sim.WriteWord(word, seed)
	if err != nil {
		return nil, fmt.Errorf("replay: synthesize: %w", err)
	}
	var start time.Duration
	for _, r := range reports {
		start = max(start, r.Timestamp)
	}
	start += 2 * time.Second
	for _, r := range letters {
		r.Timestamp += start
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Timestamp < reports[j].Timestamp })
	return reports, nil
}
