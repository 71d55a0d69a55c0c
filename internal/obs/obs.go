// Package obs is the runtime telemetry layer for the live stack:
// counters, gauges, and fixed-bucket latency histograms with
// Prometheus text-format exposition and expvar mirroring, structured
// logging conventions on log/slog, lightweight span tracing, and an
// admin HTTP mux (/metrics, /healthz, /debug/pprof). It has zero
// dependencies outside the standard library so every internal package
// can instrument itself without import cycles or vendored collectors.
//
// Conventions:
//
//   - Metric names follow Prometheus style: snake_case, a unit suffix
//     (_seconds, _total), and a subsystem prefix (llrp_, rfipad_,
//     replay_, faultnet_).
//   - Components obtain metrics from a *Registry; a nil registry in
//     any config resolves to Default(), so daemons get a single
//     process-wide view while tests can isolate with NewRegistry().
//   - Loggers carry a "component" attribute (see Component) so one
//     stream interleaves readerd, session, and recognizer records
//     distinguishably.
package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a metric family.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one metric dimension.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets is the default histogram bucket layout for span and
// RTT latencies, in seconds: 5 µs up to 10 s, roughly logarithmic.
// The recognition stages land in the µs–ms decades; network outages in
// the upper ones.
var LatencyBuckets = latencyBounds[:]

// latencyBounds holds LatencyBuckets; its length sizes HistogramBuffer.
var latencyBounds = [...]float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families. All methods are safe for concurrent
// use; metric handles are get-or-create, so two components naming the
// same series share it.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	collMu     sync.Mutex
	collectors []func(*Registry)
	runtimeOn  bool
}

// AddCollector registers a pull-style collector: fn runs at the start
// of every Snapshot (and therefore every /metrics scrape and expvar
// read), refreshing whatever gauges it owns. Collectors run outside
// the registry lock, so they are free to call Gauge/Counter/Histogram.
// This is how the runtime/metrics panel stays current without a
// polling goroutine per subsystem.
func (r *Registry) AddCollector(fn func(*Registry)) {
	r.collMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collMu.Unlock()
}

// collect runs the registered collectors (outside r.mu).
func (r *Registry) collect() {
	r.collMu.Lock()
	fns := append([]func(*Registry){}, r.collectors...)
	r.collMu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

type family struct {
	name, help string
	kind       Kind
	buckets    []float64

	mu     sync.Mutex
	series map[string]*instrument
	order  []string
}

type instrument struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry (use for tests or scoped
// subsystems; daemons use Default).
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var (
	defaultReg  = NewRegistry()
	defaultOnce sync.Once
)

// Default returns the process-wide registry. Its first use publishes
// the registry under the expvar name "rfipad_metrics", so /debug/vars
// mirrors every metric.
func Default() *Registry {
	defaultOnce.Do(func() {
		expvar.Publish("rfipad_metrics", defaultReg.ExpvarFunc())
	})
	return defaultReg
}

// Or resolves a possibly-nil registry to Default: the idiom for
// optional Obs config fields.
func Or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return Default()
}

// family fetches or creates a family, enforcing kind consistency.
func (r *Registry) family(name, help string, kind Kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*instrument{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// get fetches or creates the labeled series within a family.
func (f *family) get(labels []Label) *instrument {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.series[key]
	if !ok {
		in = &instrument{labels: sortedLabels(labels)}
		switch f.kind {
		case KindCounter:
			in.counter = &Counter{}
		case KindGauge:
			in.gauge = &Gauge{}
		case KindHistogram:
			in.hist = newHistogram(f.buckets)
		}
		f.series[key] = in
		f.order = append(f.order, key)
	}
	return in
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, KindCounter, nil).get(labels).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, KindGauge, nil).get(labels).gauge
}

// Histogram returns the named histogram, creating it on first use. A
// nil buckets slice selects LatencyBuckets. Buckets are fixed at
// family creation; later callers inherit the first layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return r.family(name, help, KindHistogram, buckets).get(labels).hist
}

// Counter is a monotonically increasing metric. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is
// lock-free; the sum uses a CAS loop.
type Histogram struct {
	bounds  []float64 // ascending finite upper bounds
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.total.Add(1)
	h.addSum(v)
}

// bucket is the index of the bucket v falls in: the first bound >= v,
// or len(bounds) for the +Inf bucket.
func (h *Histogram) bucket(v float64) int { return sort.SearchFloat64s(h.bounds, v) }

// addSum adds v to the sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// monoBase anchors the stage clock. A time.Since on a reading that
// carries the monotonic clock reads that clock alone, where time.Now
// reads the wall clock too.
var monoBase = time.Now()

// Mono reads the stage clock: the monotonic time since the package was
// loaded. Stage timers take their readings from it.
func Mono() time.Duration { return time.Since(monoBase) }

// ObserveFrom records the seconds from start, a Mono reading, to now
// and returns the reading it took. Back-to-back stages chain on that
// reading — each boundary reads the clock once, ending one stage and
// starting the next — so timing stays cheap enough to leave on in
// production.
func (h *Histogram) ObserveFrom(start time.Duration) time.Duration {
	now := Mono()
	h.ObserveDuration(now - start)
	return now
}

// HistogramBuffer holds one goroutine's observations of a Histogram
// until Fold adds them to it in one step, so a caller that observes
// many times per call pays for the histogram's shared atomics once per
// call. Its bucket array has the LatencyBuckets layout and lives in the
// value, so a caller can keep a buffer on its stack for one call; for a
// histogram of another layout, ObserveFrom observes directly. It is not
// safe for concurrent use.
type HistogramBuffer struct {
	h      *Histogram
	counts [len(latencyBounds) + 1]uint64
	n      uint64
	sum    float64
}

// Buffer returns an empty buffer for h.
func (h *Histogram) Buffer() HistogramBuffer { return HistogramBuffer{h: h} }

// ObserveFrom is Histogram.ObserveFrom into the buffer.
func (b *HistogramBuffer) ObserveFrom(start time.Duration) time.Duration {
	if len(b.h.counts) != len(b.counts) {
		return b.h.ObserveFrom(start)
	}
	now := Mono()
	v := (now - start).Seconds()
	b.counts[b.h.bucket(v)]++
	b.n++
	b.sum += v
	return now
}

// Fold adds the buffered observations to the histogram and empties the
// buffer.
func (b *HistogramBuffer) Fold() {
	if b.n == 0 {
		return
	}
	for i, c := range b.counts {
		if c != 0 {
			b.h.counts[i].Add(c)
			b.counts[i] = 0
		}
	}
	b.h.total.Add(b.n)
	b.h.addSum(b.sum)
	b.n, b.sum = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// bucketCounts snapshots per-bucket (non-cumulative) counts.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes. Samples in the
// +Inf bucket clamp to the highest finite bound. NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(q, h.bounds, h.bucketCounts())
}

func quantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the highest finite bound.
			return bounds[len(bounds)-1]
		}
		hi := bounds[i]
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// sortedLabels returns a copy sorted by key.
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelKey canonicalizes a label set into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}
