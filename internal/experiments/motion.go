package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/dsp"
	"rfipad/internal/hand"
	"rfipad/internal/metrics"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
	"rfipad/internal/stroke"
)

func init() {
	register("table1", "Table I: motion identification accuracy, LOS vs NLOS", func(cfg Config) Result {
		return RunTable1(cfg)
	})
	register("fig16", "Fig. 16: detection accuracy across environments ± diversity suppression", func(cfg Config) Result {
		return RunFig16(cfg)
	})
	register("fig17", "Fig. 17: FPR/FNR vs reader transmit power", func(cfg Config) Result {
		return RunFig17(cfg)
	})
	register("fig18", "Fig. 18: accuracy vs reader-to-tag angle", func(cfg Config) Result {
		return RunFig18(cfg)
	})
	register("fig19", "Fig. 19: error rate vs reader-to-tag distance", func(cfg Config) Result {
		return RunFig19(cfg)
	})
	register("fig20", "Fig. 20: detection accuracy per user", func(cfg Config) Result {
		return RunFig20(cfg)
	})
	register("fig21", "Fig. 21: CDF of stroke completion time", func(cfg Config) Result {
		return RunFig21(cfg)
	})
	register("fig24", "Fig. 24: recognition response time per motion", func(cfg Config) Result {
		return RunFig24(cfg)
	})
	register("confusion", "Motion confusion matrix (per-motion detail behind Table I)", func(cfg Config) Result {
		return RunConfusion(cfg)
	})
}

// Table1Result reproduces Table I.
type Table1Result struct {
	// Group accuracies per placement, one entry per group.
	LOS, NLOS []float64
}

// Name implements Result.
func (Table1Result) Name() string { return "table1" }

// Average returns the mean of a group accuracy list.
func mean(xs []float64) float64 { return dsp.Mean(xs) }

// String renders Table I.
func (r Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table I — accuracy of motion identification\n")
	fmt.Fprintf(&b, "%-6s", "Case")
	for i := range r.LOS {
		fmt.Fprintf(&b, "  Group %d", i+1)
	}
	b.WriteString("  Average\n")
	row := func(name string, xs []float64) {
		fmt.Fprintf(&b, "%-6s", name)
		for _, x := range xs {
			fmt.Fprintf(&b, "  %7.2f", x)
		}
		fmt.Fprintf(&b, "  %7.2f\n", mean(xs))
	}
	row("LOS", r.LOS)
	row("NLOS", r.NLOS)
	return b.String()
}

// RunTable1 reproduces Table I: 13 strokes, Trials repetitions, Groups
// independent runs, for both antenna placements.
func RunTable1(cfg Config) Table1Result {
	cfg.fill()
	var res Table1Result
	for _, pl := range []scene.Placement{scene.LOS, scene.NLOS} {
		_, outcomes := runCondition(cfg, condition{scene: scene.Config{Placement: pl}})
		var accs []float64
		for _, o := range outcomes {
			accs = append(accs, o.Tally.Accuracy())
		}
		if pl == scene.LOS {
			res.LOS = accs
		} else {
			res.NLOS = accs
		}
	}
	return res
}

// Fig16Result reproduces Fig. 16.
type Fig16Result struct {
	Locations []scene.Location
	With      []float64 // accuracy with diversity suppression
	Without   []float64 // accuracy without
}

// Name implements Result.
func (Fig16Result) Name() string { return "fig16" }

// String renders the per-location comparison.
func (r Fig16Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 16 — detection accuracy vs environment\n")
	b.WriteString("location   without-suppression  with-suppression\n")
	for i, loc := range r.Locations {
		fmt.Fprintf(&b, "%-10v %19.3f %17.3f\n", loc, r.Without[i], r.With[i])
	}
	return b.String()
}

// RunFig16 measures accuracy at the four lab locations with and
// without diversity suppression.
func RunFig16(cfg Config) Fig16Result {
	cfg.fill()
	res := Fig16Result{Locations: scene.Locations()}
	for _, loc := range res.Locations {
		with, _ := runCondition(cfg, condition{scene: scene.Config{Location: loc}})
		without, _ := runCondition(cfg, condition{
			scene:       scene.Config{Location: loc},
			suppression: core.SuppressNone,
		})
		res.With = append(res.With, with.Accuracy())
		res.Without = append(res.Without, without.Accuracy())
	}
	return res
}

// Fig17Result reproduces Fig. 17.
type Fig17Result struct {
	PowersDBm []float64
	FPR, FNR  []float64
}

// Name implements Result.
func (Fig17Result) Name() string { return "fig17" }

// String renders the power sweep.
func (r Fig17Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 17 — error rate vs reader transmit power\n")
	b.WriteString("power(dBm)    FPR    FNR\n")
	for i, p := range r.PowersDBm {
		fmt.Fprintf(&b, "%10.1f  %5.3f  %5.3f\n", p, r.FPR[i], r.FNR[i])
	}
	return b.String()
}

// RunFig17 sweeps the reader transmit power over the paper's range
// (15–32.5 dBm; the regulatory cap is 32.5).
func RunFig17(cfg Config) Fig17Result {
	cfg.fill()
	res := Fig17Result{PowersDBm: []float64{15, 18, 20, 25, 32.5}}
	for _, p := range res.PowersDBm {
		tally, _ := runCondition(cfg, condition{scene: scene.Config{TxPowerDBm: p}})
		res.FPR = append(res.FPR, tally.FPR())
		res.FNR = append(res.FNR, tally.FNR())
	}
	return res
}

// Fig18Result reproduces Fig. 18.
type Fig18Result struct {
	AnglesDeg  []float64
	Accuracies []float64
}

// Name implements Result.
func (Fig18Result) Name() string { return "fig18" }

// String renders the angle sweep.
func (r Fig18Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 18 — accuracy vs reader-to-tag angle\n")
	b.WriteString("angle(deg)  accuracy\n")
	for i, a := range r.AnglesDeg {
		fmt.Fprintf(&b, "%10.0f  %8.3f\n", a, r.Accuracies[i])
	}
	return b.String()
}

// RunFig18 sweeps the antenna tilt over the paper's angles. The paper
// runs only "−" and "|" here (§V-B4); we run the full motion set,
// whose arc and click motions are the angle-sensitive ones — straight
// strokes alone barely degrade on either substrate.
func RunFig18(cfg Config) Fig18Result {
	cfg.fill()
	res := Fig18Result{AnglesDeg: []float64{-30, 0, 30, 45}}
	for _, a := range res.AnglesDeg {
		tally, _ := runCondition(cfg, condition{scene: scene.Config{AngleDeg: a}})
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// Fig19Result reproduces Fig. 19.
type Fig19Result struct {
	DistancesM []float64
	FPR, FNR   []float64
}

// Name implements Result.
func (Fig19Result) Name() string { return "fig19" }

// String renders the distance sweep.
func (r Fig19Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 19 — error rate vs reader-to-tag distance\n")
	b.WriteString("distance(cm)    FPR    FNR\n")
	for i, d := range r.DistancesM {
		fmt.Fprintf(&b, "%12.0f  %5.3f  %5.3f\n", d*100, r.FPR[i], r.FNR[i])
	}
	return b.String()
}

// RunFig19 sweeps the reader-to-plane distance (20–80 cm, §V-B5).
func RunFig19(cfg Config) Fig19Result {
	cfg.fill()
	res := Fig19Result{DistancesM: []float64{0.20, 0.50, 0.80}}
	for _, d := range res.DistancesM {
		tally, _ := runCondition(cfg, condition{scene: scene.Config{ReaderDistance: d}})
		res.FPR = append(res.FPR, tally.FPR())
		res.FNR = append(res.FNR, tally.FNR())
	}
	return res
}

// Fig20Result reproduces Fig. 20.
type Fig20Result struct {
	Users      []string
	Accuracies []float64
}

// Name implements Result.
func (Fig20Result) Name() string { return "fig20" }

// String renders the per-user accuracies.
func (r Fig20Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 20 — detection accuracy vs user\n")
	b.WriteString("user      accuracy\n")
	for i, u := range r.Users {
		fmt.Fprintf(&b, "%-9s %8.3f\n", u, r.Accuracies[i])
	}
	accs := append([]float64(nil), r.Accuracies...)
	sort.Float64s(accs)
	fmt.Fprintf(&b, "median    %8.3f\n", dsp.Median(accs))
	return b.String()
}

// RunFig20 measures each of the ten volunteers separately (§V-B6).
func RunFig20(cfg Config) Fig20Result {
	cfg.fill()
	var res Fig20Result
	for _, u := range hand.Volunteers() {
		tally, _ := runCondition(cfg, condition{users: []hand.User{u}})
		res.Users = append(res.Users, u.Name)
		res.Accuracies = append(res.Accuracies, tally.Accuracy())
	}
	return res
}

// Fig21Result reproduces Fig. 21: the distribution of the time needed
// to complete (and correctly recognize) each stroke.
type Fig21Result struct {
	// Quantiles of the pooled stroke-duration distribution.
	P50, P90, P99 time.Duration
	// PerMotionP90 maps each motion to its 90th-percentile duration.
	PerMotionP90 map[stroke.Motion]time.Duration
	// Within2s is the fraction of strokes completed within 2 s.
	Within2s float64
}

// Name implements Result.
func (Fig21Result) Name() string { return "fig21" }

// String renders the CDF summary.
func (r Fig21Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 21 — CDF of stroke completion time\n")
	fmt.Fprintf(&b, "p50=%v p90=%v p99=%v within2s=%.3f\n", r.P50.Round(time.Millisecond), r.P90.Round(time.Millisecond), r.P99.Round(time.Millisecond), r.Within2s)
	motions := make([]stroke.Motion, 0, len(r.PerMotionP90))
	for m := range r.PerMotionP90 {
		motions = append(motions, m)
	}
	sort.Slice(motions, func(i, j int) bool {
		if motions[i].Shape != motions[j].Shape {
			return motions[i].Shape < motions[j].Shape
		}
		return motions[i].Dir < motions[j].Dir
	})
	for _, m := range motions {
		fmt.Fprintf(&b, "%-8v p90=%v\n", m, r.PerMotionP90[m].Round(time.Millisecond))
	}
	return b.String()
}

// RunFig21 collects the durations of correctly recognized strokes
// across the volunteer panel.
func RunFig21(cfg Config) Fig21Result {
	cfg.fill()
	_, outcomes := runCondition(cfg, condition{users: hand.Volunteers()})
	perMotion := map[stroke.Motion][]float64{}
	var all []float64
	for _, o := range outcomes {
		for m, ds := range o.Durations {
			for _, d := range ds {
				perMotion[m] = append(perMotion[m], d.Seconds())
				all = append(all, d.Seconds())
			}
		}
	}
	cdf := dsp.NewCDF(all)
	res := Fig21Result{
		P50:          time.Duration(cdf.Quantile(0.5) * float64(time.Second)),
		P90:          time.Duration(cdf.Quantile(0.9) * float64(time.Second)),
		P99:          time.Duration(cdf.Quantile(0.99) * float64(time.Second)),
		Within2s:     cdf.P(2.0),
		PerMotionP90: map[stroke.Motion]time.Duration{},
	}
	for m, ds := range perMotion {
		res.PerMotionP90[m] = time.Duration(dsp.NewCDF(ds).Quantile(0.9) * float64(time.Second))
	}
	return res
}

// Fig24Result reproduces Fig. 24: the latency between a finished
// motion and its recognition report. On our substrate this is pure
// compute time of the recognition pipeline (the paper's prototype
// reports <0.1 s including its C# stack).
type Fig24Result struct {
	Shapes []stroke.Shape
	// MeanResponse and MaxResponse are wall-clock pipeline latencies.
	MeanResponse, MaxResponse []time.Duration
}

// Name implements Result.
func (Fig24Result) Name() string { return "fig24" }

// String renders the per-motion latency table.
func (r Fig24Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 24 — response time per motion category\n")
	b.WriteString("motion   mean        max\n")
	for i, s := range r.Shapes {
		fmt.Fprintf(&b, "#%d %-5v %-11v %v\n", i+1, s, r.MeanResponse[i], r.MaxResponse[i])
	}
	return b.String()
}

// RunFig24 measures the wall-clock recognition latency per motion
// category over repeated captures.
func RunFig24(cfg Config) Fig24Result {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(scene.Config{}, rng)
	system := sim.New(dep, rng)
	cal, err := system.Calibrate(cfg.CalibrationTime)
	if err != nil {
		return Fig24Result{}
	}
	pipeline := core.NewPipeline(system.Grid, cal)
	seg := core.NewSegmenter()

	var res Fig24Result
	for s := stroke.Click; s <= stroke.ArcRight; s++ {
		m := stroke.M(s, stroke.Forward)
		var total, max time.Duration
		n := 0
		for k := 0; k < cfg.Trials*cfg.Groups; k++ {
			synth := system.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(cfg.Seed+int64(s)*101+int64(k))))
			script := synth.DrawOne(m)
			readings := capture(system, script)
			start := time.Now()
			pipeline.RecognizeStream(readings, seg, 0, script.Duration()+time.Second)
			lat := time.Since(start)
			total += lat
			if lat > max {
				max = lat
			}
			n++
		}
		res.Shapes = append(res.Shapes, s)
		res.MeanResponse = append(res.MeanResponse, total/time.Duration(n))
		res.MaxResponse = append(res.MaxResponse, max)
	}
	return res
}

// ConfusionResult reports the full 13-motion confusion matrix for the
// default deployment — the per-motion detail behind Table I's averages.
type ConfusionResult struct {
	Matrix  *metrics.Confusion
	Overall float64
}

// Name implements Result.
func (ConfusionResult) Name() string { return "confusion" }

// String renders the matrix.
func (r ConfusionResult) String() string {
	return fmt.Sprintf("Motion confusion matrix (NLOS default, overall %.3f)\n%s", r.Overall, r.Matrix)
}

// RunConfusion runs every motion under the default deployment and
// tabulates truth vs prediction.
func RunConfusion(cfg Config) ConfusionResult {
	cfg.fill()
	_, outcomes := runCondition(cfg, condition{})
	merged := NewAggregate()
	for _, o := range outcomes {
		merged.Merge(o)
	}
	return ConfusionResult{Matrix: merged.Confusion, Overall: merged.Confusion.Accuracy()}
}
