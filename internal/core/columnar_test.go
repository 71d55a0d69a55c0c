package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// batchOf holds a reading fixture as the columns every pipeline entry
// point takes.
func batchOf(readings []Reading) *ReadingBatch {
	b := new(ReadingBatch)
	for _, rd := range readings {
		b.AppendReading(rd)
	}
	return b
}

// ingestOne feeds one reading to rec as a one-element batch.
func ingestOne(rec *Recognizer, rd Reading) []Event {
	return rec.IngestBatch(batchOf([]Reading{rd}))
}

// equivPhase folds a raw phase value onto the reporting range [0, 2π).
func equivPhase(p float64) float64 {
	p = math.Mod(p, 2*math.Pi)
	if p < 0 {
		p += 2 * math.Pi
	}
	return p
}

// equivQuiet is a static prelude around the given per-tag base phases.
func equivQuiet(grid Grid, base []float64, to time.Duration, rng *rand.Rand) []Reading {
	n := grid.NumTags()
	var out []Reading
	for t := time.Duration(0); t < to; t += 10 * time.Millisecond {
		for i := 0; i < n; i++ {
			out = append(out, Reading{
				TagIndex: i,
				Time:     t + time.Duration(i)*time.Millisecond/10,
				Phase:    equivPhase(base[i] + rng.NormFloat64()*0.01),
				RSS:      -55,
			})
		}
	}
	return out
}

// equivStream builds a randomized reading stream for the batch/scalar
// equivalence test: a quiet carrier with motion-like phase bursts,
// plus the transport pathologies the recognizer must tolerate —
// local reordering, exact duplicates, very late readings, and
// out-of-range tag indices.
func equivStream(grid Grid, base []float64, secs int, rng *rand.Rand) []Reading {
	n := grid.NumTags()
	var out []Reading
	for t := time.Duration(0); t < time.Duration(secs)*time.Second; t += 10 * time.Millisecond {
		// Motion bursts: a smooth, strong phase disturbance sweeping a
		// few tags for ~600 ms, with quiet letter gaps between bursts.
		sec := t / time.Second
		burst := 0.0
		if sec%5 == 3 && t%(5*time.Second) < 3600*time.Millisecond {
			phase := float64(t%(5*time.Second)-3*time.Second) / float64(600*time.Millisecond)
			burst = 1.8 * math.Sin(phase*math.Pi)
		}
		for i := 0; i < n; i++ {
			p := base[i] + rng.NormFloat64()*0.01
			if burst != 0 && i%7 < 3 {
				p += burst
			}
			out = append(out, Reading{
				TagIndex: i,
				Time:     t + time.Duration(i)*time.Millisecond/10,
				Phase:    equivPhase(p),
				RSS:      -55 + rng.NormFloat64(),
			})
		}
	}
	// Local reordering: swap a few percent of adjacent pairs.
	for k := 0; k < len(out)/20; k++ {
		i := rng.Intn(len(out) - 1)
		out[i], out[i+1] = out[i+1], out[i]
	}
	// Exact duplicates of recent readings.
	for k := 0; k < len(out)/50; k++ {
		i := rng.Intn(len(out))
		out = append(out, out[i])
	}
	// Out-of-range tag indices (dropped by every path).
	for k := 0; k < 25; k++ {
		out = append(out, Reading{
			TagIndex: []int{-3, n, n + 17}[rng.Intn(3)],
			Time:     time.Duration(rng.Intn(secs*1000)) * time.Millisecond,
			Phase:    rng.Float64() * 2 * math.Pi,
			RSS:      -55,
		})
	}
	// Shuffle the appended tail into the body a little so duplicates
	// and strays arrive interleaved, not clumped at the end.
	tail := len(out) - len(out)/50 - 25
	for k := tail; k < len(out); k++ {
		i := tail/2 + rng.Intn(len(out)-tail/2)
		out[k], out[i] = out[i], out[k]
	}
	return out
}

// TestIngestBatchMatchesScalarIngest is the batch/scalar equivalence
// property: feeding a randomized stream through IngestBatch in
// arbitrary batch groupings emits exactly the same events — deeply
// equal, in the same order — as feeding it reading by reading in
// one-element batches, late and duplicate and out-of-range
// pathologies included. Run under -race in CI.
func TestIngestBatchMatchesScalarIngest(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(11))
	base := make([]float64, grid.NumTags())
	for i := range base {
		base[i] = rng.Float64() * 6.28
	}
	static := equivQuiet(grid, base, 3*time.Second, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 3; trial++ {
		stream := equivStream(grid, base, 20, rand.New(rand.NewSource(int64(100+trial))))
		grouping := rand.New(rand.NewSource(int64(trial)))

		recScalar := NewRecognizer(NewPipeline(grid, cal), nil)
		var wantEvents []Event
		for _, rd := range stream {
			wantEvents = append(wantEvents, ingestOne(recScalar, rd)...)
		}
		wantEvents = append(wantEvents, recScalar.Flush(21*time.Second)...)

		recBatch := NewRecognizer(NewPipeline(grid, cal), nil)
		var gotEvents []Event
		var b ReadingBatch
		for i := 0; i < len(stream); {
			j := i + 1 + grouping.Intn(64)
			if j > len(stream) {
				j = len(stream)
			}
			b.Reset()
			for _, rd := range stream[i:j] {
				b.AppendReading(rd)
			}
			gotEvents = append(gotEvents, recBatch.IngestBatch(&b)...)
			i = j
		}
		gotEvents = append(gotEvents, recBatch.Flush(21*time.Second)...)

		if len(wantEvents) == 0 {
			t.Fatalf("trial %d: stream produced no events — equivalence test is vacuous", trial)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("trial %d: batch events diverge from scalar events\nscalar: %d events\nbatch:  %d events\nscalar: %+v\nbatch:  %+v",
				trial, len(wantEvents), len(gotEvents), wantEvents, gotEvents)
		}
	}
}

// TestIngestBatchSingleElementMatchesIngest pins one-element ingest
// directly: a one-element view of a decoded capture and a reused
// one-element batch filled reading by reading are the same operation.
func TestIngestBatchSingleElementMatchesIngest(t *testing.T) {
	grid := Grid{Rows: 5, Cols: 5}
	rng := rand.New(rand.NewSource(12))
	static := syntheticQuiet(grid, 0, 3*time.Second, 10*time.Millisecond, rng)
	cal, err := Calibrate(static, grid.NumTags())
	if err != nil {
		t.Fatal(err)
	}
	recA := NewRecognizer(NewPipeline(grid, cal), nil)
	recB := NewRecognizer(NewPipeline(grid, cal), nil)
	stream := syntheticQuiet(grid, 0, 12*time.Second, 10*time.Millisecond, rng)
	capture := batchOf(stream)
	var b ReadingBatch
	for k, rd := range stream {
		one := capture.Slice(k, k+1)
		evA := recA.IngestBatch(&one)
		b.Reset()
		b.AppendReading(rd)
		evB := recB.IngestBatch(&b)
		if !reflect.DeepEqual(evA, evB) {
			t.Fatalf("reading at %v: one-element view events %+v, one-element IngestBatch events %+v", rd.Time, evA, evB)
		}
	}
	if recA.hist.Len() != recB.hist.Len() || recA.clock.now != recB.clock.now || recA.bufStart != recB.bufStart {
		t.Fatalf("recognizer state diverged: hist %d/%d now %v/%v bufStart %v/%v",
			recA.hist.Len(), recB.hist.Len(), recA.clock.now, recB.clock.now, recA.bufStart, recB.bufStart)
	}
}

// TestDuplicatePolicyFirstArrivalWins pins the duplicate-merge policy
// shared by the per-tag split and both recognizer ingest paths: when
// two readings of the same tag carry the same timestamp, the one that
// arrived first survives — deterministically, in every path.
func TestDuplicatePolicyFirstArrivalWins(t *testing.T) {
	mk := func(ms int, phase float64) Reading {
		return Reading{TagIndex: 0, Time: time.Duration(ms) * time.Millisecond, Phase: phase, RSS: -55}
	}
	// Arrival order: phase 1.0 first, conflicting phase 2.0 later —
	// with surrounding readings in several arrangements.
	arrangements := [][]Reading{
		{mk(10, 1.0), mk(10, 2.0)},
		{mk(10, 1.0), mk(20, 9.0), mk(10, 2.0)},
		{mk(20, 9.0), mk(10, 1.0), mk(10, 2.0), mk(10, 3.0)},
	}
	for i, rs := range arrangements {
		run := splitOf(rs, 1).run(0)
		var got float64
		for k, at := range run.times {
			if at == 10*time.Millisecond {
				got = run.phases[k]
			}
		}
		if got != 1.0 {
			t.Errorf("arrangement %d: the split kept phase %v at t=10ms, want 1.0 (first arrival)", i, got)
		}
	}

	// Recognizer paths: one-element and whole-batch feeding must keep
	// the same survivor.
	cal := UniformCalibration(4)
	check := func(name string, ingest func(*Recognizer, []Reading)) {
		rec := NewRecognizer(NewPipeline(Grid{Rows: 2, Cols: 2}, cal), nil)
		ingest(rec, []Reading{mk(10, 1.0), mk(20, 9.0), mk(10, 2.0)})
		for i := 0; i < rec.hist.Len(); i++ {
			if rec.hist.Times[i] == 10*time.Millisecond && rec.hist.Phases[i] != 1.0 {
				t.Errorf("%s: kept phase %v at t=10ms, want 1.0 (first arrival)", name, rec.hist.Phases[i])
			}
		}
	}
	check("scalar", func(rec *Recognizer, rs []Reading) {
		for _, rd := range rs {
			ingestOne(rec, rd)
		}
	})
	check("columnar", func(rec *Recognizer, rs []Reading) {
		rec.IngestBatch(batchOf(rs))
	})
}
