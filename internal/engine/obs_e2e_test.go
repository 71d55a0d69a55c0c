package engine_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/faultnet"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// TestEndToEndChaosTelemetry drives a chaos run (forced mid-word
// disconnects through faultnet) with every component wired to one
// isolated metrics registry — the engine through its Obs field alone,
// so its recognizers must inherit it — then asserts runtime health
// three ways: the registry snapshot after Close, the /metrics
// Prometheus scrape, and /healthz reporting calibrated=true after the
// prelude. This is the observability acceptance scenario: degradation
// must be measured, not just tolerated.
func TestEndToEndChaosTelemetry(t *testing.T) {
	const word = "IT"
	reg := obs.NewRegistry()
	reports, err := replay.Synthesize(12, word, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	srv := llrp.NewServer(func() llrp.ReportSource {
		return replay.NewSource(reports, replay.Options{Speed: 25, Obs: reg})
	})
	srv.IdleTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := faultnet.Listen(inner, faultnet.Config{
		Seed:           7,
		DropAfterBytes: 32 * 1024, // every connection dies mid-word
		DupFrameProb:   0.03,
		PartialWrites:  true,
		FrameHeaderLen: llrp.HeaderLen,
		FrameSize:      llrp.FrameSize,
		Observer: func(kind string) {
			reg.Counter("faultnet_injected_faults_total",
				"Faults injected, by kind.", obs.L("kind", kind)).Inc()
		},
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	// Admin endpoint over the same registry, with rfipad-live's health
	// and readiness semantics.
	admin, err := obs.StartAdmin("127.0.0.1:0", reg, func() obs.Health {
		snap := reg.Snapshot()
		return obs.Health{
			OK: snap.Value("llrp_session_connected") == 1,
			Detail: map[string]any{
				"calibrated": snap.Value("engine_streams_calibrated") > 0,
				"dead_tags":  snap.Value("engine_dead_tags"),
				"reconnects": snap.Value("llrp_session_reconnects_total"),
			},
		}
	}, func() obs.Health {
		return obs.Health{OK: engine.Ready(reg.Snapshot())}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
		Addr:              inner.Addr().String(),
		BackoffInitial:    5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		JitterSeed:        11,
		KeepaliveInterval: 50 * time.Millisecond,
		IdleTimeout:       time.Second,
		WriteTimeout:      time.Second,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	res, err := runOne(engine.Config{Obs: reg}, sess)
	if err != nil {
		t.Fatalf("stream run: %v (partial %q)", err, res.Letters)
	}
	if res.Letters != word {
		t.Errorf("recognized %q, want %q", res.Letters, word)
	}

	// 1. The registry snapshot carries the run's telemetry out.
	snap := reg.Snapshot()
	if v := snap.Value("llrp_session_reconnects_total"); v == 0 {
		t.Error("snapshot: llrp_session_reconnects_total = 0, want > 0 (chaos never engaged?)")
	}
	if v := snap.Value("llrp_session_disconnects_total"); v == 0 {
		t.Error("snapshot: llrp_session_disconnects_total = 0, want > 0")
	}
	if v := snap.Value("faultnet_injected_faults_total", obs.L("kind", faultnet.FaultDrop)); v == 0 {
		t.Error("snapshot: no injected drops counted")
	}
	if v := snap.Value("engine_streams_calibrated"); v != 1 {
		t.Errorf("snapshot: engine_streams_calibrated = %v, want 1", v)
	}
	if v := snap.Value("rfipad_readings_total"); v == 0 {
		t.Error("snapshot: no readings counted")
	}
	if v := snap.Value("rfipad_readings_dropped_total", obs.L("reason", "duplicate")); v == 0 {
		t.Error("snapshot: no duplicate drops despite resume overlap + frame duplication")
	}
	for _, stage := range []string{
		core.StageSegment, core.StageDisturbance, core.StageClassify,
		core.StageDirection, core.StageGrammar,
	} {
		p, ok := snap.Get("rfipad_stage_seconds", obs.L("stage", stage))
		if !ok || p.Count == 0 {
			t.Errorf("snapshot: stage %q histogram empty", stage)
			continue
		}
		if q := p.Quantile(0.95); !(q > 0) {
			t.Errorf("snapshot: stage %q p95 = %v, want > 0", stage, q)
		}
	}

	// 2. The same facts are scrapeable in Prometheus text format.
	metrics := scrape(t, "http://"+admin.Addr()+"/metrics")
	if v := metrics["llrp_session_reconnects_total"]; v <= 0 {
		t.Errorf("/metrics: llrp_session_reconnects_total = %v, want > 0", v)
	}
	if v := metrics[`rfipad_stage_seconds_count{stage="segment"}`]; v <= 0 {
		t.Errorf("/metrics: segment stage histogram empty (%v)", v)
	}
	if v := metrics[`rfipad_stage_seconds_count{stage="disturbance"}`]; v <= 0 {
		t.Errorf("/metrics: disturbance stage histogram empty (%v)", v)
	}
	if v := metrics["replay_batches_total"]; v <= 0 {
		t.Errorf("/metrics: replay_batches_total = %v, want > 0", v)
	}

	// 3. /healthz reports the prelude completed.
	resp, err := http.Get("http://" + admin.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["calibrated"] != true {
		t.Errorf("/healthz calibrated = %v, want true (body %v)", health["calibrated"], health)
	}
	if r, _ := health["reconnects"].(float64); r <= 0 {
		t.Errorf("/healthz reconnects = %v, want > 0", health["reconnects"])
	}

	t.Logf("telemetry: %d reconnects, resume-gap samples %d, keepalive RTT samples %d",
		int(snap.Value("llrp_session_reconnects_total")),
		snap.HistCount("llrp_session_resume_gap_seconds"),
		snap.HistCount("llrp_session_keepalive_rtt_seconds"))
}

// scrape fetches a Prometheus exposition and parses the sample lines
// into a name{labels} → value map.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty scrape")
	}
	return out
}
