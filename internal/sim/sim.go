// Package sim orchestrates full-system simulations: it drives the EPC
// Gen2 MAC over a deployed tag array while a synthesized hand moves
// above it, producing the timestamped tag reports a real reader would
// deliver (llrp.TagReport). It is the glue between the substrates
// (scene, hand, epc, rf) and the recognition pipeline (core), which
// takes the reports decoded as rfipad-live decodes them
// (live.AppendReports).
package sim

import (
	"math/rand"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/epc"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/rf"
	"rfipad/internal/scene"
)

// System is one deployed RFIPad with its reader MAC.
type System struct {
	Dep  *scene.Deployment
	Grid core.Grid

	macCfg epc.Config
	rng    *rand.Rand
}

// Option configures a System.
type Option func(*System)

// WithMACConfig overrides the EPC MAC timing.
func WithMACConfig(cfg epc.Config) Option {
	return func(s *System) { s.macCfg = cfg }
}

// New builds a System over a deployment. rng drives the MAC slot
// choices and the channel measurement noise; it must not be nil.
func New(dep *scene.Deployment, rng *rand.Rand, opts ...Option) *System {
	s := &System{
		Dep:    dep,
		Grid:   core.Grid{Rows: dep.Array.Rows, Cols: dep.Array.Cols},
		macCfg: epc.DefaultConfig(),
		rng:    rng,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// scattererFn yields the moving scatterers at a given instant (none in
// a static scene).
type scattererFn func(t time.Duration) []rf.Scatterer

// collect runs a fresh MAC from t=0 to end while scs moves above the
// plate.
func (s *System) collect(end time.Duration, scs scattererFn) []llrp.TagReport {
	return s.inventory(epc.NewSimulator(s.macCfg, s.rng), 0, end, scs, nil)
}

// inventory advances mac from start to end over this plate while scs
// moves above it, and appends each successful singulation to out as
// the tag report a reader delivers: the tag's EPC on antenna 1 with
// the measured phase, RSS and Doppler.
func (s *System) inventory(mac *epc.Simulator, start, end time.Duration, scs scattererFn, out []llrp.TagReport) []llrp.TagReport {
	tags := s.Dep.Array.Tags
	responds := func(i int, now time.Duration) bool {
		// The power-up check is noiseless: it is a threshold on
		// harvested energy, not a measurement.
		return s.Dep.Channel.ObserveAt(tags[i].RFPoint(), scs(now), nil, now).PoweredUp
	}
	emit := func(i int, now time.Duration) {
		obs := s.Dep.Channel.ObserveAt(tags[i].RFPoint(), scs(now), s.rng, now)
		out = append(out, llrp.TagReport{
			EPC:       tags[i].EPC,
			AntennaID: 1,
			PhaseRad:  obs.PhaseRad,
			RSSdBm:    obs.RSSdBm,
			DopplerHz: obs.DopplerHz,
			Timestamp: now,
		})
	}
	mac.Run(start, end, len(tags), responds, emit)
	return out
}

// CollectStatic gathers reports with no hand present — the static
// capture used for calibration and the Fig. 2/4/5 baselines.
func (s *System) CollectStatic(dur time.Duration) []llrp.TagReport {
	return s.collect(dur, s.scatterers(nil))
}

// Calibrate performs the deployment-time static capture and computes
// the diversity-suppression statistics.
func (s *System) Calibrate(dur time.Duration) (*core.Calibration, error) {
	return s.calibrate(s.CollectStatic(dur))
}

// calibrate decodes a static capture of this plate as rfipad-live
// decodes the wire and calibrates on it.
func (s *System) calibrate(static []llrp.TagReport) (*core.Calibration, error) {
	var b core.ReadingBatch
	live.AppendReports(&b, static)
	return core.CalibrateBatch(&b, s.Grid.NumTags())
}

// RunScript simulates the MAC while the hand performs the script,
// returning the report stream from t=0 to the script end plus a
// trailing quiet second (so segmentation can close the final stroke).
func (s *System) RunScript(script *hand.Script) []llrp.TagReport {
	return s.collect(script.Duration()+time.Second, s.scatterers(script))
}

// scatterers moves the hand along script until it ends; a nil script
// leaves the scene static.
func (s *System) scatterers(script *hand.Script) scattererFn {
	return func(t time.Duration) []rf.Scatterer {
		if script == nil || t > script.Duration() {
			return nil
		}
		return hand.Scatterers(script, s.Dep.Body, t)
	}
}

// Synthesizer builds a hand synthesizer for this deployment's canvas.
func (s *System) Synthesizer(u hand.User, rng *rand.Rand) *hand.Synthesizer {
	return hand.NewSynthesizer(u, s.Dep.Canvas, rng)
}

// newSeededRand builds a deterministic RNG (small helper shared by the
// multi-plate constructor).
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
