// Multiplate: the paper's cost-efficiency headline (§I) — one reader,
// several RFIPad plates. The reader time-multiplexes its antenna ports
// across two plates while two visitors gesture simultaneously; each
// plate's pipeline recognizes its own writer from its thinner share of
// the read budget.
//
//	go run ./examples/multiplate
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
	"rfipad/internal/stroke"
)

func main() {
	// Two plates in different corners of the lobby, one shared reader.
	plateA := sim.NewPlateSystem(scene.Config{Location: scene.Location1}, 71)
	plateB := sim.NewPlateSystem(scene.Config{Location: scene.Location2}, 72)
	reader := sim.NewMultiPlate([]*sim.System{plateA, plateB}, 250*time.Millisecond)

	fmt.Println("calibrating both plates through the shared reader...")
	cals, err := reader.CalibrateAll(6 * time.Second)
	if err != nil {
		log.Fatal(err)
	}

	// Visitor A swipes to the next page; visitor B scrolls down.
	synthA := plateA.Synthesizer(hand.DefaultUser(), rand.New(rand.NewSource(1)))
	synthB := plateB.Synthesizer(hand.Volunteers()[4], rand.New(rand.NewSource(2)))
	scriptA := synthA.DrawOne(stroke.M(stroke.Horizontal, stroke.Forward))
	scriptB := synthB.DrawOne(stroke.M(stroke.Vertical, stroke.Forward))

	streams := reader.Run([]*hand.Script{scriptA, scriptB})

	for i, tc := range []struct {
		name   string
		plate  *sim.System
		script *hand.Script
	}{
		{"plate A (visitor swiping)", plateA, scriptA},
		{"plate B (visitor scrolling)", plateB, scriptB},
	} {
		var capture core.ReadingBatch
		live.AppendReports(&capture, streams[i])
		pipeline := core.NewPipeline(tc.plate.Grid, cals[i])
		results := pipeline.RecognizeStream(&capture, nil, 0, tc.script.Duration()+time.Second)
		fmt.Printf("%s: %d reads, ", tc.name, len(streams[i]))
		if len(results) == 1 && results[0].Result.Ok {
			fmt.Printf("recognized %v\n", results[0].Result.Motion)
		} else {
			fmt.Printf("%d spans detected\n", len(results))
		}
	}
	fmt.Println("\none reader, two pads — the extra cost per pad is 25 passive tags.")
}
