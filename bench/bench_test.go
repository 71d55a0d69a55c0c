package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		p     float64
		want  float64
		above int
	}{{50, 5, 5}, {90, 9, 1}, {95, 10, 0}, {99, 10, 0}, {10, 1, 9}, {1, 1, 9}} {
		got, above := percentile(vals(), c.p)
		if got != c.want || above != c.above {
			t.Errorf("p%v = %v with %d above, want %v with %d", c.p, got, above, c.want, c.above)
		}
	}
	if got, above := percentile(nil, 50); !math.IsNaN(got) || above != 0 {
		t.Errorf("empty p50 = %v, %d", got, above)
	}
	// Ties at the percentile are not counted above it.
	if got, above := percentile([]float64{1, 2, 2, 2}, 50); got != 2 || above != 0 {
		t.Errorf("tied p50 = %v with %d above, want 2 with 0", got, above)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates past tiny samples
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBestTenth(t *testing.T) {
	eleven := func() []float64 { return []float64{5, 11, 1, 9, 3, 7, 2, 10, 4, 8, 6} }
	for _, c := range []struct {
		data   []float64
		higher bool
		want   float64
	}{
		{eleven(), true, 10.5}, // 11 values: the best two
		{eleven(), false, 1.5},
		{[]float64{3, 1, 2}, true, 3},
		{[]float64{3, 1, 2}, false, 1},
	} {
		if got := bestTenth(c.data, c.higher); got != c.want {
			t.Errorf("bestTenth(higher=%v) = %v, want %v", c.higher, got, c.want)
		}
	}
	if got := bestTenth(nil, true); !math.IsNaN(got) {
		t.Errorf("empty bestTenth = %v", got)
	}
}

func TestHostSlowdown(t *testing.T) {
	var h hostClock
	if got := h.slowdown(); got != 1 {
		t.Errorf("no samples: slowdown %v, want 1", got)
	}
	h.sample(2)
	if len(h.ms) != 2 || h.ms[0] <= 0 || h.ms[1] <= 0 {
		t.Errorf("sample(2) recorded %v", h.ms)
	}
	h.ms = []float64{2 * refNominalMs, refNominalMs, 1.5 * refNominalMs}
	if got := h.slowdown(); got != 1.5 {
		t.Errorf("slowdown %v, want the median over nominal, 1.5", got)
	}
}

func TestLevenshteinAccuracy(t *testing.T) {
	for _, c := range []struct {
		a, b string
		d    int
	}{{"QUICK", "QUCCK", 1}, {"BROWN", "BRCCWN", 2}, {"", "DOG", 3}, {"DOG", "DOG", 0}, {"DOG", "ICOG", 2}} {
		if d := levenshtein(c.a, c.b); d != c.d {
			t.Errorf("levenshtein(%q, %q) = %d, want %d", c.a, c.b, d, c.d)
		}
	}
	if a := accuracy([]string{"QUCCK", "THE"}, []string{"QUICK", "THE"}); a != 1-1.0/8 {
		t.Errorf("accuracy = %v, want %v", a, 1-1.0/8)
	}
}

// toyConfig is every workload at toy scale: two captures, two plates,
// one lap or one pass.
func toyConfig() config {
	cfg := defaultConfig(7, time.Second)
	cfg.captures = 2
	cfg.plates = 2
	cfg.speed = 64
	cfg.joinSpread = 100 * time.Millisecond
	cfg.burstPlates = 2
	cfg.copies = 2
	cfg.maxPasses = 1
	return cfg
}

func TestLapsRestampStrictlyIncreasing(t *testing.T) {
	caps, err := synthesize(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps := caps[0].reports
	out, starts := withLaps(reps, 3)
	if len(starts) != 3 || starts[0] != 0 {
		t.Fatalf("lap starts %v", starts)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Timestamp < out[i-1].Timestamp {
			t.Fatalf("timestamp %d regresses: %v after %v", i, out[i].Timestamp, out[i-1].Timestamp)
		}
	}
	// At each seam the next lap starts strictly after the previous one
	// ended, past its lap start.
	for l := 1; l < len(starts); l++ {
		seam := len(reps) + (l-1)*(len(out)-len(reps))/2
		prev, next := out[seam-1].Timestamp, out[seam].Timestamp
		if next <= prev || next <= starts[l] || starts[l] <= starts[l-1] {
			t.Errorf("lap %d seam: %v then %v, lap start %v", l, prev, next, starts[l])
		}
	}
	// Captures are a fixed point of the wire codec, so serving them over
	// LLRP changes nothing the reference saw.
	if again, err := codecPass(reps); err != nil || !slices.Equal(again, reps) {
		t.Errorf("captures change when served over the wire (err %v)", err)
	}
	if d := densify(reps, 4); len(d) != 4*len(reps) {
		t.Errorf("densify kept %d of %d reports", len(d), 4*len(reps))
	} else {
		for i := 1; i < len(d); i++ {
			if d[i].Timestamp <= d[i-1].Timestamp {
				t.Fatalf("densified timestamp %d not strictly increasing", i)
			}
		}
	}
}

func TestPacedWindowSchedule(t *testing.T) {
	cfg := toyConfig()
	cfg.plates = 60
	cfg.seconds = 3 * time.Second
	wl, err := setupPaced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*paced)
	tick := w.tick()
	if want := time.Duration(float64(window) / cfg.speed / float64(cfg.slots)); tick != want {
		t.Fatalf("tick %v, want %v", tick, want)
	}
	period := tick * time.Duration(cfg.slots)
	slotsSeen := map[time.Duration]bool{}
	for p := 0; p < cfg.plates; p++ {
		slot := p % cfg.slots
		// Consecutive windows are one report period apart.
		if d := w.dueNs(p, 5) - w.dueNs(p, 4); d != int64(period) {
			t.Fatalf("plate %d: windows %v apart, want %v", p, time.Duration(d), period)
		}
		// A window falls due when its stream-time end has passed at
		// speed, offset by the plate's join time.
		first := time.Duration(w.dueNs(p, 0))
		joinAt := time.Duration(w.join[p]) * period
		if want := joinAt + time.Duration(float64(w.phase(slot)+window)/cfg.speed); first != want {
			t.Fatalf("plate %d: first window due %v, want %v", p, first, want)
		}
		if joinAt >= cfg.joinSpread {
			t.Errorf("plate %d joins at %v, after the %v join spread", p, joinAt, cfg.joinSpread)
		}
		slotsSeen[first%period] = true
		// Every reading sits in the window the cuts put it in.
		cuts := w.cuts[(p%len(w.caps))*cfg.slots+slot]
		reps := w.streams[p%len(w.caps)]
		for k := 0; k+1 < len(cuts); k += 37 {
			for i := cuts[k]; i < cuts[k+1]; i++ {
				if got := windowOf(reps[i].Timestamp, w.phase(slot), window); got != k {
					t.Fatalf("reading %d in window %d, windowOf says %d", i, k, got)
				}
			}
		}
	}
	if len(slotsSeen) != cfg.slots {
		t.Errorf("window phases use %d distinct slots, want %d", len(slotsSeen), cfg.slots)
	}
	// The last plate finishes every lap by the deadline on the schedule
	// clock; only a single-lap capture may run past it.
	for c, s := range w.streams {
		if len(w.starts[c]) == 1 {
			continue
		}
		end := cfg.joinSpread + time.Duration(float64(s[len(s)-1].Timestamp)/cfg.speed)
		if end > cfg.seconds {
			t.Errorf("capture %d: %d laps end at %v on the schedule, after %v", c, len(w.starts[c]), end, cfg.seconds)
		}
	}
}

// readOutput parses a run's output lines into its metric records and
// its result line.
func readOutput(t *testing.T, out []byte) (map[string]record, result) {
	t.Helper()
	recs := map[string]record{}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Name != "" {
			recs[r.Name] = r
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return recs, res
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestWorkloadsToyScale runs every workload at toy scale, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that the correctness check passes. It asserts no
// timings.
func TestWorkloadsToyScale(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				var out bytes.Buffer
				res, err := runWorkload(spec, toyConfig(), traced, dir, &out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				recs, last := readOutput(t, out.Bytes())
				if !res.Correct || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("traced=%v: result %+v", traced, last)
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(last.Metrics), len(want))
				}
				for _, m := range want {
					r, ok := recs[m.Name]
					got := last.Metrics[m.Name]
					if !ok || r.Unit != m.Unit || got.Unit != m.Unit || math.IsNaN(got.Value) {
						t.Errorf("traced=%v: metric %s = %+v (line %+v), want unit %s", traced, m.Name, got, r, m.Unit)
					}
					if !traced && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if traced {
					if st, err := os.Stat(filepath.Join(dir, "trace-"+spec.name+".jsonl")); err != nil || st.Size() == 0 {
						t.Errorf("trace file: %v", err)
					}
				}
			}
		})
	}
}

func TestCompareVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		change      []float64
		lowerBetter bool
		want        string
	}{
		{shift(0), true, "unchanged"},
		{shift(1), true, "unchanged"},
		{shift(-10), true, "improved"},
		{shift(10), false, "improved"},
		{shift(20), true, "regressed"},
		{shift(-20), false, "regressed"},
		{[]float64{60, 140, 100, 80, 120, 100, 70, 130, 90, 110}, true, "unchanged"},
	} {
		if got := verdict(parent, c.change, c.lowerBetter, 0.1); got.name != c.want {
			t.Errorf("change %v lowerBetter=%v: %s, want %s", c.change, c.lowerBetter, got.name, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(noisy, shift(15), true, 0.1); got.name != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got.name)
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "no-such-workload"}, &out, &errOut); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q for an unknown workload", out.String())
	}
}
