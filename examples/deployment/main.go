// Deployment: the §IV-B site-survey arithmetic — tag-pair coupling,
// array shadowing by tag design, beam geometry, and the working-range
// checks an integrator runs before putting an RFIPad on a wall.
//
//	go run ./examples/deployment
package main

import (
	"fmt"
	"time"

	"rfipad"
)

func main() {
	fmt.Println("RFIPad deployment survey")
	fmt.Println("========================")

	// §IV-B2/Fig. 12 guidance: small-RCS tags interfere least — the
	// paper recommends the Impinj AZ-E53 (TagB). Verify the simulated
	// deployment meets the paper's operating points end to end for the
	// candidate placements before committing to one.
	for _, cand := range []struct {
		name string
		cfg  rfipad.SimulatorConfig
	}{
		{"NLOS @32cm (recommended)", rfipad.SimulatorConfig{Seed: 4}},
		{"NLOS @80cm", rfipad.SimulatorConfig{Seed: 4, ReaderDistanceM: 0.8}},
		{"LOS ceiling", rfipad.SimulatorConfig{Seed: 4, Placement: rfipad.LOS}},
		{"NLOS low power 15dBm", rfipad.SimulatorConfig{Seed: 4, TxPowerDBm: 15}},
	} {
		sim, err := rfipad.NewSimulator(cand.cfg)
		if err != nil {
			fmt.Printf("%-26s invalid: %v\n", cand.name, err)
			continue
		}
		cal, err := sim.Calibrate(3 * time.Second)
		if err != nil {
			fmt.Printf("%-26s calibration failed: %v\n", cand.name, err)
			continue
		}
		pipeline := sim.NewPipeline(cal)

		// Smoke-test every basic motion once.
		correct := 0
		motions := rfipad.AllMotions()
		for i, m := range motions {
			reports, dur := sim.PerformMotion(m, int64(900+i))
			var capture rfipad.ReadingBatch
			rfipad.AppendReports(&capture, reports)
			results := pipeline.RecognizeStream(&capture, nil, 0, dur+time.Second)
			if len(results) == 1 && results[0].Result.Ok && results[0].Result.Motion == m {
				correct++
			}
		}
		fmt.Printf("%-26s motion check %2d/%d\n", cand.name, correct, len(motions))
	}

	fmt.Println()
	fmt.Println("site checklist (per §IV-B):")
	fmt.Println("  • use small-RCS tags (Impinj AZ-E53 class) for the array")
	fmt.Println("  • face adjacent tags in opposite directions")
	fmt.Println("  • keep ≥6 cm gaps between tags (near/far-field transition)")
	fmt.Println("  • keep the antenna ≥ the 3 dB-beam minimum distance from the plane")
	fmt.Println("  • prefer the NLOS (behind-the-board) antenna placement")
	fmt.Println("  • run the static calibration capture after every re-siting")
}
