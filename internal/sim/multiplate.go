package sim

import (
	"time"

	"rfipad/internal/core"
	"rfipad/internal/epc"
	"rfipad/internal/hand"
	"rfipad/internal/llrp"
	"rfipad/internal/scene"
)

// MultiPlate models the paper's headline cost-efficiency claim (§I,
// §IV-B3): one reader carries several antennas, each facing its own
// RFIPad plate, and time-multiplexes inventory across them the way an
// Impinj reader cycles its antenna ports. Each plate keeps its own
// calibration and pipeline; the price of sharing the reader is that
// every plate sees only a slice of the aggregate read rate.
type MultiPlate struct {
	// Plates are the deployments sharing the reader.
	Plates []*System
	// SwitchDwell is how long the reader stays on one antenna before
	// cycling (Impinj readers default to ~0.2–0.5 s per port).
	SwitchDwell time.Duration
}

// NewMultiPlate wires systems onto one shared reader. All systems must
// already be built (their RNGs stay independent so plate A's noise does
// not perturb plate B's reproducibility).
func NewMultiPlate(plates []*System, dwell time.Duration) *MultiPlate {
	if dwell <= 0 {
		dwell = 250 * time.Millisecond
	}
	return &MultiPlate{Plates: plates, SwitchDwell: dwell}
}

// Run simulates the shared reader from t=0 until every script has
// finished plus a trailing quiet second, returning one report stream
// per plate. Plates without a script stay idle but keep consuming
// their antenna dwells — exactly the cost a deployment pays for
// parking an RFIPad on a busy reader.
func (m *MultiPlate) Run(scripts []*hand.Script) [][]llrp.TagReport {
	var end time.Duration
	for i := range m.Plates {
		if i < len(scripts) && scripts[i] != nil {
			end = max(end, scripts[i].Duration())
		}
	}
	return m.run(scripts, end+time.Second)
}

// CalibrateAll runs the static capture on every plate (the reader
// cycles antennas during calibration too, so each plate's capture is
// proportionally thinner).
func (m *MultiPlate) CalibrateAll(dur time.Duration) ([]*core.Calibration, error) {
	cals := make([]*core.Calibration, len(m.Plates))
	for i, static := range m.run(nil, dur) {
		cal, err := m.Plates[i].calibrate(static)
		if err != nil {
			return nil, err
		}
		cals[i] = cal
	}
	return cals, nil
}

// run cycles the reader across the plates from t=0 to end while plate
// i's hand performs scripts[i] (none past the slice's end or for a nil
// entry), returning one report stream per plate. Each plate has its
// own MAC simulator (the reader re-arbitrates when it switches ports),
// advanced dwell by dwell in round-robin.
func (m *MultiPlate) run(scripts []*hand.Script, end time.Duration) [][]llrp.TagReport {
	out := make([][]llrp.TagReport, len(m.Plates))
	macs := make([]*epc.Simulator, len(m.Plates))
	for i, p := range m.Plates {
		macs[i] = epc.NewSimulator(p.macCfg, p.rng)
	}
	now := time.Duration(0)
	for now < end {
		for i, p := range m.Plates {
			if now >= end {
				break
			}
			var script *hand.Script
			if i < len(scripts) {
				script = scripts[i]
			}
			dwellEnd := min(now+m.SwitchDwell, end)
			out[i] = p.inventory(macs[i], now, dwellEnd, p.scatterers(script), out[i])
			now = dwellEnd
		}
	}
	return out
}

// NewPlateSystem is a convenience constructor for plates that share a
// reader: each plate gets its own scene and RNG seed.
func NewPlateSystem(cfg scene.Config, seed int64) *System {
	rng := newSeededRand(seed)
	dep := scene.New(cfg, rng)
	return New(dep, rng)
}
