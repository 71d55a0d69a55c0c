// Airwriting: the paper's headline scenario — a user writes a word in
// the air, letter by letter, and the streaming recognizer reports
// strokes and letters as they happen (§III-C).
//
//	go run ./examples/airwriting
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"rfipad"
)

func main() {
	const word = "RFID"

	sim, err := rfipad.NewSimulator(rfipad.SimulatorConfig{
		Seed: 2,
		// Use one of the paper's volunteers instead of the median
		// writer.
		Writer: rfipad.Volunteers()[2],
	})
	if err != nil {
		log.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		log.Fatal(err)
	}

	var recognized strings.Builder
	for i, ch := range word {
		// Each letter gets its own streaming recognizer, as a kiosk
		// would reset between inputs.
		rec := sim.NewRecognizer(cal)
		reports, dur, err := sim.WriteLetter(ch, int64(100+i))
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("writing %q", ch)
		if strokes, ok := rfipad.LetterStrokes(ch); ok {
			var parts []string
			for _, s := range strokes {
				parts = append(parts, s.Motion.String())
			}
			fmt.Printf("  (grammar: %s)", strings.Join(parts, " "))
		}
		fmt.Println()

		emit := func(evs []rfipad.Event) {
			for _, ev := range evs {
				switch ev.Kind {
				case rfipad.StrokeDetected:
					fmt.Printf("  %v at %v\n", ev.Stroke.Motion, ev.Span.Start.Round(100*time.Millisecond))
				case rfipad.LetterDeduced:
					fmt.Printf("  => %q\n", ev.Letter)
					recognized.WriteRune(ev.Letter)
				}
			}
		}
		var batch rfipad.ReadingBatch
		rfipad.AppendReports(&batch, reports)
		emit(rec.IngestBatch(&batch))
		emit(rec.Flush(dur + 2*time.Second))
	}

	fmt.Printf("\nwrote %q — recognized %q\n", word, recognized.String())
}
