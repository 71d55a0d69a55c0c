package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine: all must share the
			// same series.
			c := r.Counter("test_ops_total", "ops", L("kind", "inc"))
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c := r.Counter("test_ops_total", "ops", L("kind", "inc"))
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_temp", "temperature")
	g.Set(20)
	g.Add(2.5)
	g.Add(-10)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.1, 0.5, 1})
	// Exactly-on-bound samples land in the bucket whose le equals the
	// value (Prometheus le semantics: cumulative counts are ≤ bound).
	for _, v := range []float64{0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 7} {
		h.Observe(v)
	}
	counts := h.bucketCounts()
	want := []uint64{2, 2, 2, 1} // (-inf,0.1], (0.1,0.5], (0.5,1], (1,+inf)
	if len(counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(0.05+0.1+0.3+0.5+0.9+1.0+7)) > 1e-12 {
		t.Errorf("sum = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q_seconds", "q", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	// 100 samples uniform in (0,1]: every quantile interpolates inside
	// the first bucket, linearly from 0 to 1.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5 (linear interpolation in [0,1])", got)
	}
	if got := h.Quantile(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("p100 = %v, want 1", got)
	}

	// Spread across buckets: 50 in (0,1], 30 in (1,2], 20 in (2,4].
	h2 := r.Histogram("test_q2_seconds", "q2", []float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h2.Observe(1.5)
	}
	for i := 0; i < 20; i++ {
		h2.Observe(3)
	}
	// rank(0.9) = 90 → 10 into the 20-count (2,4] bucket → 2 + 2·(10/20) = 3.
	if got := h2.Quantile(0.9); math.Abs(got-3) > 1e-9 {
		t.Errorf("p90 = %v, want 3", got)
	}
	// rank(0.5) = 50 → exactly the full first bucket → its upper bound.
	if got := h2.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("p50 = %v, want 1", got)
	}

	// Samples beyond the last finite bound clamp to it.
	h3 := r.Histogram("test_q3_seconds", "q3", []float64{1, 2})
	h3.Observe(100)
	if got := h3.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "conc", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w%2) * 0.9) // half below, half above the bound
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	counts := h.bucketCounts()
	if counts[0] != 2000 || counts[1] != 2000 {
		t.Fatalf("buckets = %v, want [2000 2000]", counts)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("test_x", "x")
}

func TestSnapshotLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a", L("kind", "x")).Add(3)
	r.Counter("a_total", "a", L("kind", "y")).Add(5)
	r.Gauge("g", "g").Set(1.5)
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)

	snap := r.Snapshot()
	if v := snap.Value("a_total", L("kind", "x")); v != 3 {
		t.Errorf("a_total{kind=x} = %v, want 3", v)
	}
	if v := snap.Value("a_total", L("kind", "y")); v != 5 {
		t.Errorf("a_total{kind=y} = %v, want 5", v)
	}
	if v := snap.Value("g"); v != 1.5 {
		t.Errorf("g = %v, want 1.5", v)
	}
	if n := snap.HistCount("h_seconds"); n != 2 {
		t.Errorf("h_seconds count = %d, want 2", n)
	}
	p, ok := snap.Get("h_seconds")
	if !ok {
		t.Fatal("h_seconds missing from snapshot")
	}
	if got := p.Quantile(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("snapshot p25 = %v, want 0.5", got)
	}
	if _, ok := snap.Get("a_total"); ok {
		t.Error("bare a_total should not match labeled series")
	}
	if v := snap.Value("missing"); v != 0 {
		t.Errorf("missing series value = %v, want 0", v)
	}
}

func TestHistogramObserveFrom(t *testing.T) {
	r := NewRegistry()
	seg := r.Histogram("stage_seconds", "stage latency", nil, L("stage", "segment"))
	gram := r.Histogram("stage_seconds", "stage latency", nil, L("stage", "grammar"))
	t0 := Mono()
	t1 := seg.ObserveFrom(t0)
	t2 := gram.ObserveFrom(t1)
	if t1 < t0 || t2 < t1 {
		t.Fatalf("clock readings out of order: %v, %v, %v", t0, t1, t2)
	}
	// Chained stages share their boundary reading, so the observed
	// sums add up to the whole interval exactly.
	if got, want := seg.Sum()+gram.Sum(), (t2 - t0).Seconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("stage sums %v, whole interval %v", got, want)
	}
	snap := r.Snapshot()
	for _, stage := range []string{"segment", "grammar"} {
		if n := snap.HistCount("stage_seconds", L("stage", stage)); n != 1 {
			t.Errorf("%s histogram count = %d, want 1", stage, n)
		}
	}
}

// TestHistogramBufferFolds pins that a buffer's observations reach its
// histogram only at Fold, all of them, in their buckets, and that Fold
// empties the buffer; a histogram of another bucket layout takes each
// observation at once.
func TestHistogramBufferFolds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "stage latency", nil)
	buf := h.Buffer()
	h.Observe(0.5)
	t0 := Mono()
	for i := 0; i < 3; i++ {
		buf.ObserveFrom(t0)
	}
	if n := h.Count(); n != 1 {
		t.Fatalf("count before Fold = %d, want 1", n)
	}
	buf.Fold()
	buf.Fold() // empty: adds nothing
	if n := h.Count(); n != 4 {
		t.Fatalf("count after Fold = %d, want 4", n)
	}
	var buffered uint64
	for _, c := range h.bucketCounts()[:h.bucket(0.25)+1] {
		buffered += c
	}
	if buffered != 3 {
		t.Errorf("%d observations in the buckets up to 0.25 s, want the 3 buffered ones", buffered)
	}
	if s := h.Sum(); s < 0.5 || s > 1 {
		t.Errorf("sum %v, want 0.5 plus three short intervals", s)
	}

	other := r.Histogram("other_seconds", "another layout", []float64{1, 2})
	ob := other.Buffer()
	ob.ObserveFrom(Mono())
	if n := other.Count(); n != 1 {
		t.Errorf("count of a histogram of another layout = %d, want 1 before Fold", n)
	}
	ob.Fold()
	if n := other.Count(); n != 1 {
		t.Errorf("count after Fold = %d, want 1", n)
	}
}
