// Command rfipad-live is the backend of the paper's setup: it connects
// to a reader daemon (rfipad-readerd), calibrates the diversity
// suppression from the static prelude, and recognizes strokes and
// letters online as reports stream in.
//
// The connection is a fault-tolerant llrp.Session: if the daemon
// restarts or the link drops mid-word, the backend reconnects with
// capped exponential backoff and resumes the stream from its last-seen
// timestamp, keeping whatever it already recognized. A circuit breaker
// (-breaker-threshold) stops a flapping reader from burning reconnect
// bandwidth. Calibration tolerates dead tags; their cells are
// interpolated from live neighbors.
//
// With -checkpoint-dir set, calibration state is checkpointed to disk
// (atomically, with a checksum) on a timer and on every drain; a
// restarted backend restores a fresh-enough checkpoint and skips the
// static prelude entirely. SIGINT/SIGTERM trigger a graceful drain:
// in-flight batches are flushed, final telemetry is emitted, and
// checkpoints are written before exit.
//
// Recognition output (strokes, letters, the final words) goes to
// stdout; everything operational is structured logging on stderr via
// log/slog, tagged with a component attribute (session, engine,
// cluster). With -obs-addr set, an admin listener serves Prometheus
// metrics (/metrics), health (/healthz), readiness for load balancers
// (/readyz — ready once the engine accepts pushes and a stream's
// calibration is restored-or-complete), expvar (/debug/vars), and
// pprof (/debug/pprof/).
//
// Usage:
//
//	rfipad-live -connect 127.0.0.1:5084 -calib 3s
//	rfipad-live -connect 127.0.0.1:5084 -retry-max 10 -keepalive 500ms
//	rfipad-live -connect 127.0.0.1:5084 -streams 16 -engine-workers 4
//	rfipad-live -checkpoint-dir /var/lib/rfipad -breaker-threshold 8
//	rfipad-live -obs-addr 127.0.0.1:9090 -log-format json -log-level debug
//
// The backend opens -streams sessions (default 1) and fans them into
// the sharded recognition engine (internal/engine), which owns each
// stream's lifecycle: restore, calibration, checkpoints, tracing,
// fencing, and panic quarantine. Pair -streams N with rfipad-readerd
// -streams, whose successive connections serve distinct capture
// variants. With -cluster-nodes the streams spread over an in-process
// cluster of engines instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfipad"
	"rfipad/internal/cluster"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

func main() {
	os.Exit(run())
}

// usageError prints a flag-validation failure plus usage and returns
// the conventional exit code 2: bad flags must die at startup, not as
// a panic deep in the pipeline.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rfipad-live: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	var (
		addr  = flag.String("connect", "127.0.0.1:5084", "reader daemon address")
		calib = flag.Duration("calib", 3*time.Second, "length of the static prelude used for calibration")
		rows  = flag.Int("rows", 5, "tag array rows")
		cols  = flag.Int("cols", 5, "tag array columns")

		streams       = flag.Int("streams", 1, "concurrent reader sessions fed into one sharded engine (pair with rfipad-readerd -streams)")
		engineWorkers = flag.Int("engine-workers", 0, "engine shard workers (0 = GOMAXPROCS)")
		clusterNodes  = flag.Int("cluster-nodes", 0, "run an in-process multi-node cluster with this many members; streams place via consistent hashing and migrate by checkpoint handoff (0 = single engine)")
		drainTimeout  = flag.Duration("drain-timeout", 5*time.Second, "bound on mailbox drain during graceful shutdown")

		leaseDuration   = flag.Duration("lease-duration", 0, "cluster mode: ownership lease each stream owner holds, renewed per heartbeat; an owner whose lease expires self-demotes before the failure detector reassigns; must exceed the heartbeat interval and stay under the failure deadline or it is reset (0 = 3/4 of the failure deadline)")
		leaseCheckEvery = flag.Duration("lease-check-every", 0, "cluster mode: owner-side watchdog period for reaping expired leases (0 = lease-duration/4)")

		retryInitial = flag.Duration("retry-initial", 100*time.Millisecond, "first reconnect backoff delay")
		retryMaxWait = flag.Duration("retry-max-wait", 5*time.Second, "backoff cap")
		retryMax     = flag.Int("retry-max", 0, "consecutive failed connects before giving up (0 = retry forever)")
		retrySeed    = flag.Int64("retry-seed", time.Now().UnixNano(), "backoff jitter seed")
		keepalive    = flag.Duration("keepalive", 2*time.Second, "keepalive ping interval (negative disables)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "declare the link dead after this much silence (default 4×keepalive)")
		writeTimeout = flag.Duration("write-timeout", 5*time.Second, "per-frame write deadline")

		breakerThreshold = flag.Int("breaker-threshold", 8, "consecutive failed connects that open the reconnect circuit breaker (0 disables)")
		breakerWindow    = flag.Duration("breaker-window", 30*time.Second, "failure streak window for the circuit breaker")
		breakerCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cool-down before a half-open probe (jittered)")

		checkpointDir    = flag.String("checkpoint-dir", "", "directory for calibration checkpoints (empty disables durability)")
		checkpointEvery  = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint save interval")
		checkpointMaxAge = flag.Duration("checkpoint-max-age", 15*time.Minute, "ignore checkpoints older than this and calibrate live")

		obsAddr   = flag.String("obs-addr", "", "admin listen address serving /metrics, /healthz, /readyz, /debug/traces, /debug/flight, /debug/pprof (empty disables)")
		logFormat = flag.String("log-format", obs.FormatText, "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")

		traceSample = flag.Int("trace-sample", 1, "trace one in N streams (1 = every stream, negative disables tracing)")
		traceBuf    = flag.Int("trace-buf", 256, "per-stream trace ring capacity in spans")
		flightDir   = flag.String("flight-dir", "", "directory for anomaly flight-recorder dumps (flight.jsonl; empty disables)")
	)
	flag.Parse()

	// Validate everything up front; a daemon that dies at flag parse is
	// recoverable, one that panics mid-calibration is an outage.
	switch {
	case *rows <= 0 || *cols <= 0:
		return usageError("-rows and -cols must be positive (got %d×%d)", *rows, *cols)
	case *calib <= 0:
		return usageError("-calib must be positive (got %v)", *calib)
	case *streams <= 0:
		return usageError("-streams must be positive (got %d)", *streams)
	case *engineWorkers < 0:
		return usageError("-engine-workers must be non-negative (got %d)", *engineWorkers)
	case *clusterNodes < 0:
		return usageError("-cluster-nodes must be non-negative (got %d)", *clusterNodes)
	case *leaseDuration < 0 || *leaseCheckEvery < 0:
		return usageError("-lease-duration and -lease-check-every must be non-negative")
	case *drainTimeout <= 0:
		return usageError("-drain-timeout must be positive (got %v)", *drainTimeout)
	case *retryMax < 0:
		return usageError("-retry-max must be non-negative (got %d)", *retryMax)
	case *retryInitial <= 0 || *retryMaxWait <= 0:
		return usageError("-retry-initial and -retry-max-wait must be positive")
	case *breakerThreshold < 0:
		return usageError("-breaker-threshold must be non-negative (got %d)", *breakerThreshold)
	case *breakerCooldown <= 0 || *breakerWindow <= 0:
		return usageError("-breaker-cooldown and -breaker-window must be positive")
	case *checkpointEvery <= 0 || *checkpointMaxAge <= 0:
		return usageError("-checkpoint-every and -checkpoint-max-age must be positive")
	case *traceBuf <= 0:
		return usageError("-trace-buf must be positive (got %d)", *traceBuf)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	log := obs.NewLogger(obs.LogOptions{Format: *logFormat, Level: level})

	var store *supervise.Store
	if *checkpointDir != "" {
		store, err = supervise.NewStore(*checkpointDir)
		if err != nil {
			return usageError("-checkpoint-dir: %v", err)
		}
	}

	// SIGINT/SIGTERM cancel this context: sessions unblock with
	// ctx.Err(), the engine drains, checkpoints are written, and the
	// process exits cleanly instead of losing calibration state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.Default()
	tracer := trace.New(trace.Config{SampleEvery: *traceSample, BufSpans: *traceBuf, Obs: reg})
	var flight *trace.Flight
	if *flightDir != "" {
		flight, err = trace.OpenFlight(*flightDir, reg, 0)
		if err != nil {
			return usageError("-flight-dir: %v", err)
		}
		defer flight.Close()
		log.Info("flight recorder armed", "component", "obs", "file", flight.Path())
	}
	if *obsAddr != "" {
		admin, err := obs.StartAdmin(*obsAddr, reg, liveHealth(reg), liveReady(reg),
			obs.Endpoint{Pattern: "/debug/traces", Handler: tracer.Handler()},
			obs.Endpoint{Pattern: "/debug/flight", Handler: flight.Handler()})
		if err != nil {
			log.Error("admin listener failed", "addr", *obsAddr, "err", err)
			return 1
		}
		defer func() {
			if cerr := admin.Close(); cerr != nil {
				log.Warn("admin shutdown", "component", "obs", "err", cerr)
			}
		}()
		log.Info("admin listening", "component", "obs", "addr", admin.Addr())
	}

	sessLog := obs.Component(log, "session")
	dial := func() (*llrp.Session, error) {
		return llrp.DialSession(ctx, llrp.SessionConfig{
			Addr:              *addr,
			BackoffInitial:    *retryInitial,
			BackoffMax:        *retryMaxWait,
			JitterSeed:        *retrySeed,
			MaxAttempts:       *retryMax,
			KeepaliveInterval: *keepalive,
			IdleTimeout:       *idleTimeout,
			WriteTimeout:      *writeTimeout,
			BreakerThreshold:  *breakerThreshold,
			BreakerWindow:     *breakerWindow,
			BreakerCooldown:   *breakerCooldown,
			Flight:            flight,
			OnEvent:           func(ev llrp.SessionEvent) { logSessionEvent(sessLog, ev) },
		})
	}

	streamCfg := live.Config{Grid: rfipad.Grid{Rows: *rows, Cols: *cols}, CalibDuration: *calib}
	if *clusterNodes > 0 {
		return runClusterMode(log, dial, *addr, *streams, *clusterNodes, cluster.Config{
			Stream:           streamCfg,
			EngineWorkers:    *engineWorkers,
			LeaseDuration:    *leaseDuration,
			LeaseCheckEvery:  *leaseCheckEvery,
			Checkpoints:      store,
			CheckpointEvery:  *checkpointEvery,
			CheckpointMaxAge: *checkpointMaxAge,
			Logger:           obs.Component(log, "cluster"),
			Trace:            tracer,
			Flight:           flight,
		})
	}

	return runEngineMode(log, dial, *addr, *streams, *engineWorkers, engine.Config{
		Stream:           streamCfg,
		Checkpoints:      store,
		CheckpointEvery:  *checkpointEvery,
		CheckpointMaxAge: *checkpointMaxAge,
		DrainTimeout:     *drainTimeout,
		Trace:            tracer,
		Flight:           flight,
	})
}

// runEngineMode fans n reader sessions into one sharded engine: each
// successive connection to a rfipad-readerd -streams daemon receives a
// distinct capture variant, so this drives n independent calibrations
// and recognizers concurrently (n = 1 is the single-reader setup).
func runEngineMode(log *slog.Logger, dial func() (*llrp.Session, error), addr string, n, workers int, cfg engine.Config) int {
	cfg.Workers = workers
	cfg.Logger = obs.Component(log, "engine")
	cfg.OnEvent = func(id engine.StreamID, ev rfipad.Event) { printEvent(string(id), ev) }
	eng := engine.New(cfg)
	return runStreams(log, dial, addr, n, "engine", eng.RunStream, func(report func(string, engine.StreamResult)) {
		for _, res := range eng.Close() {
			report(string(res.ID), res)
		}
	})
}

// runClusterMode spreads n reader sessions across an in-process
// multi-node cluster: the coordinator places each stream on a member
// by consistent hashing, membership runs on heartbeats, and any
// ownership change mid-word moves the stream's calibration by
// checkpoint handoff.
func runClusterMode(log *slog.Logger, dial func() (*llrp.Session, error), addr string, n, nodes int, cfg cluster.Config) int {
	cfg.OnEvent = func(node cluster.NodeID, id engine.StreamID, ev rfipad.Event) {
		printEvent(string(node)+"/"+string(id), ev)
	}
	c := cluster.New(cfg)
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(fmt.Sprintf("node-%02d", i))
		if _, err := c.AddNode(id); err != nil {
			log.Error("node join failed", "component", "cluster", "node", string(id), "err", err)
			c.Close()
			return 1
		}
	}
	fmt.Printf("cluster up: %d node(s)\n", nodes)
	return runStreams(log, dial, addr, n, "cluster", c.RunStream, func(report func(string, engine.StreamResult)) {
		for node, results := range c.Close() {
			for _, res := range results {
				report(string(node)+"/"+string(res.ID), res)
			}
		}
	})
}

// runStreams is the runner both modes share. It dials n reader
// sessions and drains each through run, under the ID stream-NN, on its
// own goroutine. Once every source has ended, closeAll drains the
// service and reports each stream's result under its output tag, and
// one summary line prints per result, with its session's reconnect
// count. component tags the log records. The exit code is 1 when a
// dial, a stream or a result failed.
func runStreams(log *slog.Logger, dial func() (*llrp.Session, error), addr string, n int, component string,
	run func(engine.StreamID, live.ReportSource) error, closeAll func(report func(string, engine.StreamResult))) int {
	fmt.Printf("connecting %d stream(s) to %s...\n", n, addr)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		sessions = make(map[engine.StreamID]*llrp.Session, n)
	)
	for i := 0; i < n; i++ {
		sess, err := dial()
		if err != nil {
			log.Error("dial failed", "component", "session", "addr", addr, "stream", i, "err", err)
			closeAll(func(string, engine.StreamResult) {})
			return 1
		}
		defer sess.Close()
		id := engine.StreamID(fmt.Sprintf("stream-%02d", i))
		sessions[id] = sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(id, sess); err != nil && !errors.Is(err, context.Canceled) {
				log.Error("stream failed", "component", component, "stream", string(id), "err", err)
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	closeAll(func(tag string, res engine.StreamResult) {
		if res.Err != nil {
			log.Error("stream ended with error", "component", component, "stream", tag, "err", res.Err)
			failed.Store(true)
			return
		}
		fmt.Printf("[%s] recognized %q (%d stroke(s), %d reconnect(s), %d dead tag(s))\n",
			tag, res.Letters, res.Strokes, sessions[res.ID].Stats().Reconnects, res.DeadTags)
	})
	if failed.Load() {
		return 1
	}
	return 0
}

// printEvent prints one recognition event on stdout under its tag.
func printEvent(tag string, ev rfipad.Event) {
	switch ev.Kind {
	case rfipad.StrokeDetected:
		fmt.Printf("[%s] stroke %-8v span %v–%v\n", tag, ev.Stroke.Motion,
			ev.Span.Start.Round(10*time.Millisecond), ev.Span.End.Round(10*time.Millisecond))
	case rfipad.LetterDeduced:
		fmt.Printf("[%s] letter %q\n", tag, ev.Letter)
	}
}

// liveHealth evaluates /healthz from the metrics registry: healthy
// while a reader link is up, with calibration state and reconnect
// counts as detail fields. The same engine series back it in every
// mode.
func liveHealth(reg *obs.Registry) obs.HealthFunc {
	return func() obs.Health {
		snap := reg.Snapshot()
		connected := snap.Value("llrp_session_connected") == 1
		calibrated := snap.Value("engine_streams_calibrated")
		return obs.Health{
			OK: connected,
			Detail: map[string]any{
				"connected":          connected,
				"calibrated":         calibrated > 0,
				"streams_calibrated": calibrated,
				"dead_tags":          snap.Value("engine_dead_tags"),
				"reconnects":         snap.Value("llrp_session_reconnects_total"),
			},
		}
	}
}

// liveReady evaluates /readyz, the load-balancer gate, by
// engine.Ready: the engine accepts pushes and at least one stream's
// calibration is restored-or-complete, so traffic routed here can
// actually be recognized.
func liveReady(reg *obs.Registry) obs.HealthFunc {
	return func() obs.Health {
		snap := reg.Snapshot()
		return obs.Health{
			OK: engine.Ready(snap),
			Detail: map[string]any{
				"restored":           snap.Value("checkpoint_restore_total", obs.L("outcome", "restored")),
				"engine_accepting":   snap.Value("engine_accepting") == 1,
				"streams_calibrated": snap.Value("engine_streams_calibrated"),
			},
		}
	}
}

// logSessionEvent narrates connection lifecycle through the shared
// structured log path (the same stream live status uses), keeping the
// recognition output on stdout clean.
func logSessionEvent(log *slog.Logger, ev llrp.SessionEvent) {
	switch ev.Kind {
	case llrp.SessionConnected:
		if ev.ResumeFrom == llrp.NoResume {
			log.Info("connected", "resume", false)
		} else {
			log.Info("reconnected", "resume", true, "resume_from", ev.ResumeFrom.Round(time.Millisecond))
		}
	case llrp.SessionDisconnected:
		log.Warn("link lost", "err", ev.Err)
	case llrp.SessionRetrying:
		log.Info("retrying", "attempt", ev.Attempt, "wait", ev.Wait.Round(time.Millisecond), "err", ev.Err)
	case llrp.SessionReaderInfo:
		log.Info("reader event", "info", ev.Info)
	}
}
