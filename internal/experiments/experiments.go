// Package experiments regenerates every table and figure of the
// paper's evaluation (§V) plus the ablations listed in DESIGN.md §5.
// Each experiment is a function from a Config to a result value whose
// String method prints the same rows/series the paper reports;
// bench_test.go and cmd/rfipad-bench both drive this package.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/epc"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/metrics"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
	"rfipad/internal/stroke"
)

// Config scales the experiment suite.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Trials is the number of repetitions of each motion per condition
	// and group. The paper uses 20–30; the default bench setting is
	// smaller so the whole suite stays minutes, not hours.
	Trials int
	// Groups is the number of independent deployments (fresh tag
	// manufacturing diversity) per condition — Table I runs 3.
	Groups int
	// Parallelism bounds concurrent groups (each group owns its
	// System, so groups are safely parallel). 0 means serial.
	Parallelism int
	// CalibrationTime is the static capture length for diversity
	// suppression (the paper interrogates each tag ~100 times).
	CalibrationTime time.Duration
}

// DefaultConfig returns the quick configuration used by `go test
// -bench`; cmd/rfipad-bench -full selects PaperConfig.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Trials:          4,
		Groups:          2,
		Parallelism:     4,
		CalibrationTime: 3 * time.Second,
	}
}

// PaperConfig mirrors the paper's sample sizes (§V-B1: 20 repetitions,
// 3 groups).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Trials = 20
	c.Groups = 3
	return c
}

// fill applies defaults to zero fields.
func (c *Config) fill() {
	d := DefaultConfig()
	if c.Trials <= 0 {
		c.Trials = d.Trials
	}
	if c.Groups <= 0 {
		c.Groups = d.Groups
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.CalibrationTime <= 0 {
		c.CalibrationTime = d.CalibrationTime
	}
}

// condition describes one experimental cell.
type condition struct {
	scene scene.Config
	// users performing the trials; defaults to the default user.
	users []hand.User
	// suppression selects the pipeline arm (default SuppressFull).
	suppression core.Suppression
	// motions to perform; defaults to stroke.All().
	motions []stroke.Motion
	// accumulator overrides the Eq. 10 reading (ablation).
	accumulator core.Accumulator
	// segmenter overrides the stroke segmenter (ablation); nil uses
	// the default.
	segmenter *core.Segmenter
	// mac overrides the EPC MAC timing (ablation); nil uses the
	// default.
	mac *epc.Config
}

// capture runs script on system and decodes the reports as
// rfipad-live decodes the wire.
func capture(system *sim.System, script *hand.Script) *core.ReadingBatch {
	b := new(core.ReadingBatch)
	live.AppendReports(b, system.RunScript(script))
	return b
}

// runGroup executes Trials repetitions of every motion on one fresh
// deployment and folds them into one Aggregate.
func runGroup(cfg Config, cond condition, group int) *Aggregate {
	out := NewAggregate()
	seed := cfg.Seed + int64(group)*1_000_003
	rng := rand.New(rand.NewSource(seed))
	dep := scene.New(cond.scene, rng)
	var opts []sim.Option
	if cond.mac != nil {
		opts = append(opts, sim.WithMACConfig(*cond.mac))
	}
	system := sim.New(dep, rng, opts...)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		// A deployment that cannot calibrate counts every trial as
		// missed; this cannot happen with sane configurations.
		out.MissedAll(len(cond.motions) * cfg.Trials)
		return out
	}
	if cond.suppression == core.SuppressNone {
		uc := core.UniformCalibration(cal.NumTags())
		uc.MeanPhase = cal.MeanPhase
		cal = uc
	}
	pipeline := core.NewPipeline(system.Grid, cal)
	if cond.suppression != 0 {
		pipeline.Opts.Suppression = cond.suppression
	}
	if cond.accumulator != 0 {
		pipeline.Opts.Accumulator = cond.accumulator
	}

	motions := cond.motions
	if len(motions) == 0 {
		motions = stroke.All()
	}
	users := cond.users
	if len(users) == 0 {
		users = []hand.User{hand.DefaultUser()}
	}

	for mi, m := range motions {
		for k := 0; k < cfg.Trials; k++ {
			user := users[k%len(users)]
			trialSeed := seed + int64(mi)*7919 + int64(k)*104_729 + 13
			synth := system.Synthesizer(user, rand.New(rand.NewSource(trialSeed)))
			script := synth.DrawOne(m)
			readings := capture(system, script)
			results := pipeline.RecognizeStream(readings, cond.segmenter, 0, script.Duration()+time.Second)

			trial := Trial{Motion: m}
			if len(results) > 0 && results[0].Result.Ok {
				trial.Detected = true
				trial.Predicted = results[0].Result.Motion
				trial.Spurious = len(results) - 1
				trial.Duration = script.Segments[0].End - script.Segments[0].Start
			}
			out.Observe(trial)
		}
	}
	return out
}

// runCondition fans groups out over the configured parallelism and
// merges their outcomes.
func runCondition(cfg Config, cond condition) (metrics.MotionTally, []*Aggregate) {
	outcomes := make([]*Aggregate, cfg.Groups)
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	for g := 0; g < cfg.Groups; g++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(g int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[g] = runGroup(cfg, cond, g)
		}(g)
	}
	wg.Wait()
	var total metrics.MotionTally
	for _, o := range outcomes {
		total.Add(o.Tally)
	}
	return total, outcomes
}

// Result is the common face of every experiment output.
type Result interface {
	// Name returns the experiment identifier (e.g. "table1").
	Name() string
	// String renders the paper-style table or series.
	fmt.Stringer
}

// runner is a registered experiment.
type runner struct {
	name string
	desc string
	run  func(Config) Result
}

var registry []runner

// register adds an experiment at init time. Duplicate names panic:
// a silently shadowed experiment would make `-run` ambiguous and the
// registry test meaningless, and the collision is always a programming
// error caught on the first test run.
func register(name, desc string, run func(Config) Result) {
	for _, r := range registry {
		if r.name == name {
			panic(fmt.Sprintf("experiments: duplicate registration of %q", name))
		}
	}
	registry = append(registry, runner{name: name, desc: desc, run: run})
}

// Experiment describes one registered experiment.
type Experiment struct {
	Name        string
	Description string
}

// List returns every registered experiment sorted by name.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, r := range registry {
		out = append(out, Experiment{Name: r.name, Description: r.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment; ok is false for unknown names.
func Run(name string, cfg Config) (Result, bool) {
	for _, r := range registry {
		if r.name == name {
			return r.run(cfg), true
		}
	}
	return nil, false
}
