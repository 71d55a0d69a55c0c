// Command bench is RFIPad's benchmark: it drives the recognition system
// through its public packages on four workloads and prints every
// metric by name with its unit. Run it from the repository root:
//
//	bash bench/run.sh --workload replay-burst --seed 1 --seconds 22 --trace 0
//
// Without --workload it runs every workload, each in a fresh child
// process. --trace 1 prints the per-layer metrics instead of the
// end-to-end ones and writes the span trace to
// .bench_build/trace-<workload>.jsonl. --compare PARENT_DIR CHANGE_DIR
// compares two directories of saved runs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setups is how many times each run builds its inputs; setup_s is the
// median, scaled to nominal host speed (see hostClock).
const setups = 3

// traceDir is where traced runs write their span files, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build"

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 1, "seed the inputs are synthesized from")
	seconds := fs.Int("seconds", 22, "how long one run measures")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run and writes its spans")
	compare := fs.Bool("compare", false, "compare the runs saved in PARENT_DIR and CHANGE_DIR (positional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench --compare PARENT_DIR CHANGE_DIR")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	spec, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second)
	res, err := runWorkload(spec, cfg, *trace == 1, traceDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll re-executes this binary once per workload, so no workload
// inherits another's heap, goroutines or caches.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// provenance stamps every run's output.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newProvenance(workload string, cfg config, trace bool) provenance {
	p := provenance{Commit: "unknown", Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: workload, Seed: cfg.seed,
		Seconds: int(cfg.seconds / time.Second), Trace: trace}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one metric line: the form --compare reads back.
type record struct {
	Workload string `json:"workload"`
	metric
}

// runWorkload sets the workload up, measures it, prints the provenance,
// one line per metric, and the result line, and returns the result.
func runWorkload(spec workloadSpec, cfg config, traced bool, dir string, stdout io.Writer) (*result, error) {
	wall := time.Now()
	host := &hostClock{}
	var w workload
	var durs []float64
	for i := 0; i < setups; i++ {
		host.sample(3)
		start := time.Now()
		var err error
		if w, err = spec.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	setupS := median(durs)
	if err := w.references(); err != nil {
		return nil, err
	}

	var gated, diag []metric
	var outs []*outcome
	if !traced {
		out, err := w.run(newRunCtx(cfg, nil, host))
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		gated, diag = out.endToEnd(setupS/host.slowdown(), setups), out.diagnostics()
	} else {
		base, err := w.run(newRunCtx(cfg, nil, host))
		if err != nil {
			return nil, err
		}
		tr := newTracer(time.Now(), 1<<18)
		out, err := w.run(newRunCtx(cfg, tr, host))
		if err != nil {
			return nil, err
		}
		rungs, err := runLadder(w.ladderInput(), tr)
		if err != nil {
			return nil, err
		}
		outs = append(outs, base, out)
		gated = perLayer(base, out, rungs)
		path, err := tr.write(dir, spec.name)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		diag = append(out.diagnostics(), spanDiagnostics(tr)...)
		diag = append(diag, metric{"bench.trace_dropped_spans", float64(tr.dropped.Load()), "count", 1})
		fmt.Fprintf(os.Stderr, "bench: %s: wrote %s\n", spec.name, path)
	}
	diag = append(diag,
		metric{"bench.host_slowdown", host.slowdown(), "ratio", len(host.ms)},
		metric{"bench.unscaled_setup_s", setupS, "s", setups},
		metric{"bench.wall_s", time.Since(wall).Seconds(), "s", 1})

	res := &result{Correct: true, Metrics: map[string]metricResult{}}
	for _, o := range outs {
		res.Attempted += o.offered
		res.Failed += o.failed()
		if !o.correct() {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: correctness check failed:\n%s", spec.name, o.describeFailures())
		}
	}
	for _, m := range gated {
		res.Metrics[m.Name] = metricResult{m.Value, m.Unit}
	}
	enc := json.NewEncoder(stdout)
	lines := []any{map[string]provenance{"provenance": newProvenance(spec.name, cfg, traced)}}
	for _, m := range append(gated, diag...) {
		lines = append(lines, record{spec.name, m})
	}
	lines = append(lines, res)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics lists every per-layer metric with its unit, in the
// order a traced run prints them.
var layerMetrics = []struct{ name, unit string }{
	{"llrp.encode_ns_per_reading", "ns"},
	{"llrp.decode_ns_per_reading", "ns"},
	{"llrp.bytes_per_reading", "B"},
	{"llrp.session_wait_us_per_batch", "us"},
	{"live.append_ns_per_reading", "ns"},
	{"live.calibrate_ms_per_stream", "ms"},
	{"live.ingest_ns_per_reading", "ns"},
	{"live.heap_kb_per_stream", "KB"},
	{"core.sanitize_ns_per_reading", "ns"},
	{"core.ingest_ns_per_reading_quiet", "ns"},
	{"core.ingest_us_per_event_call", "us"},
	{"core.stage.segment_us", "us"},
	{"core.stage.disturbance_us", "us"},
	{"core.stage.classify_us", "us"},
	{"core.stage.direction_us", "us"},
	{"core.stage.grammar_us", "us"},
	{"core.allocs_per_reading", "count"},
	{"engine.allocs_per_reading", "count"},
	{"engine.intake_us_per_batch", "us"},
	{"engine.self_ns_per_reading", "ns"},
	{"engine.mailbox_wait_p50_ms", "ms"},
	{"engine.mailbox_wait_p99_ms", "ms"},
	{"cluster.push_us_per_call", "us"},
	{"cluster.push_retry_frac", "ratio"},
	{"cluster.self_ns_per_reading", "ns"},
	{"bench.trace_overhead_readings_per_s", "ratio"},
	{"bench.trace_overhead_latency_p50", "ratio"},
}

// perLayer assembles the per-layer metrics of a traced run: the ladder
// rungs, the engine's mailbox-to-emission wait under the workload's
// load, and what tracing cost (traced ÷ untraced).
func perLayer(base, traced *outcome, rungs map[string]float64) []metric {
	v := map[string]float64{
		"engine.mailbox_wait_p50_ms":          traced.mailboxQuantile(0.50),
		"engine.mailbox_wait_p99_ms":          traced.mailboxQuantile(0.99),
		"bench.trace_overhead_readings_per_s": traced.readingsPerS / base.readingsPerS,
		"bench.trace_overhead_latency_p50":    traced.lat50 / base.lat50,
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		val, ok := v[m.name]
		if !ok {
			val = rungs[m.name]
		}
		out = append(out, metric{m.name, val, m.unit, ladderReps})
	}
	return out
}

// spanDiagnostics prints the mean self time of each span name.
func spanDiagnostics(tr *tracer) []metric {
	self := selfTimes(tr.recorded(), tr.labels)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []metric
	for _, n := range names {
		acc := self[n]
		out = append(out, metric{"bench.self_us." + n, acc[0] / 1e3 / acc[1], "us", int(acc[1])})
	}
	return out
}
