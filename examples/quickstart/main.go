// Quickstart: simulate one in-air stroke over the tag plate and
// recognize it with the offline pipeline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"rfipad"
)

func main() {
	// A simulated deployment with the paper's defaults: 5×5 TagB
	// array, NLOS antenna 32 cm behind the board, 30 dBm.
	sim, err := rfipad.NewSimulator(rfipad.SimulatorConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Deployment-time calibration: a few seconds of static capture
	// learn each tag's phase centre and noise level.
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		log.Fatal(err)
	}

	// The writer swipes right-to-left across the plate.
	motion := rfipad.M(rfipad.Horizontal, rfipad.Reverse)
	reports, dur := sim.PerformMotion(motion, 42)
	fmt.Printf("performed %v: %d tag reads over %v\n", motion, len(reports), dur.Round(time.Millisecond))

	// Decode the reports as the reader backend does, segment the
	// stream and recognize each detected stroke.
	var capture rfipad.ReadingBatch
	rfipad.AppendReports(&capture, reports)
	pipeline := sim.NewPipeline(cal)
	for _, res := range pipeline.RecognizeStream(&capture, nil, 0, dur+time.Second) {
		fmt.Printf("detected %v in %v–%v\n", res.Result.Motion,
			res.Span.Start.Round(10*time.Millisecond), res.Span.End.Round(10*time.Millisecond))
		fmt.Println("disturbance image:")
		fmt.Println(res.Result.Image)
	}
}
