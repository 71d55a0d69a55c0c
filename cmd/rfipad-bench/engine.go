package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"rfipad/internal/engine"
	"rfipad/internal/experiments/scenario"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// streamLatency is one stream's event-latency summary from the
// engine_event_latency_seconds histogram.
type streamLatency struct {
	Events  uint64  `json:"events"`
	Letters string  `json:"letters"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
}

// engineReport is the machine-readable BENCH_engine.json payload: the
// sharded engine's aggregate throughput, its scaling against a
// single-stream run on the same captures, steady-state allocation
// rate, and per-stream event latency.
type engineReport struct {
	Provenance        scenario.Provenance      `json:"provenance"`
	Word              string                   `json:"word"`
	Streams           int                      `json:"streams"`
	Workers           int                      `json:"workers"`
	Cores             int                      `json:"cores"`
	ReadingsPerStream int                      `json:"readings_per_stream"`
	ReadingsTotal     int                      `json:"readings_total"`
	SingleWallSec     float64                  `json:"single_stream_wall_seconds"`
	SingleRate        float64                  `json:"single_stream_readings_per_sec"`
	MultiWallSec      float64                  `json:"multi_stream_wall_seconds"`
	MultiRate         float64                  `json:"multi_stream_readings_per_sec"`
	ScaleFactor       float64                  `json:"scale_factor"`
	AllocsPerReading  float64                  `json:"allocs_per_reading"`
	BytesPerReading   float64                  `json:"bytes_per_reading"`
	Overflow          uint64                   `json:"overflow_batches"`
	PerStream         map[string]streamLatency `json:"per_stream"`
}

// sliceSource feeds a synthesized capture to the engine in 256-report
// batches as fast as it drains them (no replay pacing), so wall time
// measures the recognition stack alone.
type sliceSource struct {
	reports []llrp.TagReport
	pos     int
}

func (s *sliceSource) NextReports() ([]llrp.TagReport, error) {
	const chunk = 256
	if s.pos >= len(s.reports) {
		return nil, llrp.ErrStreamEnded
	}
	end := min(s.pos+chunk, len(s.reports))
	b := s.reports[s.pos:end]
	s.pos = end
	return b, nil
}

func (s *sliceSource) Stats() llrp.SessionStats { return llrp.SessionStats{} }

// runEngineLoad pushes every capture through a fresh engine (one
// unpaced source goroutine per stream) and returns the wall time plus
// the per-run registry and results.
func runEngineLoad(captures map[engine.StreamID][]llrp.TagReport, workers int) (time.Duration, *obs.Registry, []engine.StreamResult, error) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: workers, Obs: reg})
	var wg sync.WaitGroup
	errs := make(chan error, len(captures))
	start := time.Now()
	for id, reports := range captures {
		wg.Add(1)
		go func(id engine.StreamID, reports []llrp.TagReport) {
			defer wg.Done()
			if err := eng.RunStream(id, &sliceSource{reports: reports}); err != nil {
				errs <- err
			}
		}(id, reports)
	}
	wg.Wait()
	results := eng.Close()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, nil, nil, err
	}
	return wall, reg, results, nil
}

// runEngineBench measures the sharded engine: a single-stream baseline
// run, then the full fan-out, with allocation accounting around the
// multi-stream run. It writes the JSON report to path.
func runEngineBench(seed int64, word string, streams, workers int, path string) error {
	if streams <= 0 {
		streams = 16
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	captures := map[engine.StreamID][]llrp.TagReport{}
	for i := 0; i < streams; i++ {
		reports, err := replay.Synthesize(seed+int64(i), word, 3*time.Second)
		if err != nil {
			return err
		}
		captures[engine.StreamID(fmt.Sprintf("stream-%02d", i))] = reports
	}
	perStream := len(captures["stream-00"])
	total := 0
	for _, reports := range captures {
		total += len(reports)
	}

	// Single-stream baseline on the first capture.
	single := map[engine.StreamID][]llrp.TagReport{"stream-00": captures["stream-00"]}
	singleWall, _, _, err := runEngineLoad(single, 1)
	if err != nil {
		return fmt.Errorf("engine bench single-stream: %w", err)
	}

	// Full fan-out, with allocation accounting. A GC fence before each
	// ReadMemStats keeps the mallocs delta attributable to the run.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	multiWall, reg, results, err := runEngineLoad(captures, workers)
	if err != nil {
		return fmt.Errorf("engine bench multi-stream: %w", err)
	}
	runtime.ReadMemStats(&after)

	snap := reg.Snapshot()
	per := map[string]streamLatency{}
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("engine bench stream %s: %w", res.ID, res.Err)
		}
		p, _ := snap.Get("engine_event_latency_seconds", obs.L("stream", string(res.ID)))
		per[string(res.ID)] = streamLatency{
			Events:  p.Count,
			Letters: res.Letters,
			P50Ms:   p.Quantile(0.50) * 1e3,
			P95Ms:   p.Quantile(0.95) * 1e3,
		}
	}

	singleRate := float64(perStream) / singleWall.Seconds()
	multiRate := float64(total) / multiWall.Seconds()
	rep := engineReport{
		Provenance:        newProvenance(seed),
		Word:              word,
		Streams:           streams,
		Workers:           workers,
		Cores:             runtime.NumCPU(),
		ReadingsPerStream: perStream,
		ReadingsTotal:     total,
		SingleWallSec:     singleWall.Seconds(),
		SingleRate:        singleRate,
		MultiWallSec:      multiWall.Seconds(),
		MultiRate:         multiRate,
		ScaleFactor:       multiRate / singleRate,
		AllocsPerReading:  float64(after.Mallocs-before.Mallocs) / float64(total),
		BytesPerReading:   float64(after.TotalAlloc-before.TotalAlloc) / float64(total),
		Overflow:          uint64(snap.Value("engine_overflow_total")),
		PerStream:         per,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("=== engine (%v)\n%d streams / %d workers on %d core(s): %.0f readings/s aggregate (%.2fx single-stream), %.1f allocs/reading; wrote %s\n",
		multiWall.Round(time.Millisecond), streams, workers, rep.Cores,
		multiRate, rep.ScaleFactor, rep.AllocsPerReading, path)
	return nil
}
