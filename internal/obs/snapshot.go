package obs

import (
	"math"
	"sort"
)

// Bucket is one histogram bucket in a snapshot: the count of samples
// at or below UpperBound, non-cumulative.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Point is one metric series frozen at snapshot time.
type Point struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"-"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value (histograms: the sum).
	Value float64 `json:"value"`
	// Count and Buckets are populated for histograms.
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`

	bounds []float64
	counts []uint64
}

// Quantile estimates the q-th quantile of a histogram point (NaN for
// non-histograms or empty histograms).
func (p Point) Quantile(q float64) float64 {
	if p.Kind != KindHistogram || len(p.counts) == 0 {
		return math.NaN()
	}
	return quantile(q, p.bounds, p.counts)
}

// Snapshot is a point-in-time copy of every series in a registry, so
// tests, health checks, and callers can assert on telemetry without
// scraping.
type Snapshot struct {
	Points []Point `json:"points"`
}

// Snapshot freezes the registry. Points are ordered by family name,
// then series creation order. Registered collectors (AddCollector) run
// first, so pull-style panels — the runtime/metrics gauges — are
// refreshed in the same snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.collect()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var snap Snapshot
	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		series := make([]*instrument, 0, len(order))
		for _, key := range order {
			series = append(series, f.series[key])
		}
		f.mu.Unlock()
		for _, in := range series {
			p := Point{Name: f.name, Kind: f.kind}
			if len(in.labels) > 0 {
				p.Labels = map[string]string{}
				for _, l := range in.labels {
					p.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				p.Value = float64(in.counter.Value())
			case KindGauge:
				p.Value = in.gauge.Value()
			case KindHistogram:
				p.Value = in.hist.Sum()
				p.Count = in.hist.Count()
				p.bounds = in.hist.bounds
				p.counts = in.hist.bucketCounts()
				for i, c := range p.counts {
					ub := math.Inf(1)
					if i < len(p.bounds) {
						ub = p.bounds[i]
					}
					p.Buckets = append(p.Buckets, Bucket{UpperBound: ub, Count: c})
				}
			}
			snap.Points = append(snap.Points, p)
		}
	}
	return snap
}

// Get returns the point matching name and the given labels (all must
// match exactly).
func (s Snapshot) Get(name string, labels ...Label) (Point, bool) {
	for _, p := range s.Points {
		if p.Name != name || len(p.Labels) != len(labels) {
			continue
		}
		match := true
		for _, l := range labels {
			if p.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			return p, true
		}
	}
	return Point{}, false
}

// Value returns the counter/gauge value (histogram sum) of the named
// series, or 0 when absent.
func (s Snapshot) Value(name string, labels ...Label) float64 {
	p, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return p.Value
}

// HistCount returns the observation count of the named histogram, or 0
// when absent.
func (s Snapshot) HistCount(name string, labels ...Label) uint64 {
	p, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return p.Count
}
