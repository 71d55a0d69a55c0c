// Command rfipad-sim runs an end-to-end demonstration: a simulated
// writer air-writes a word above the tag plate, the simulated reader
// streams tag reports, and the streaming recognizer prints every
// detected stroke and deduced letter.
//
// Usage:
//
//	rfipad-sim -word HELLO
//	rfipad-sim -word RFID -placement los -location 4 -seed 3 -verbose
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfipad"
)

func main() {
	os.Exit(run())
}

// usageError prints a flag-validation failure plus usage and returns
// exit code 2.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rfipad-sim: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	var (
		word      = flag.String("word", "HI", "uppercase word to write, one letter at a time")
		seed      = flag.Int64("seed", 1, "simulation seed")
		placement = flag.String("placement", "nlos", "antenna placement: nlos or los")
		location  = flag.Int("location", 1, "lab environment 1-4")
		power     = flag.Float64("power", 30, "reader TX power (dBm)")
		verbose   = flag.Bool("verbose", false, "print per-stroke gray maps")
	)
	flag.Parse()

	switch {
	case *word == "":
		return usageError("-word must be non-empty")
	case *location < 1 || *location > 4:
		return usageError("-location must be 1-4 (got %d)", *location)
	case *power <= 0:
		return usageError("-power must be positive (got %v)", *power)
	}

	// Ctrl-C aborts between letters instead of leaving a half-printed
	// transcript mid-stroke.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sim, err := rfipad.NewSimulator(rfipad.SimulatorConfig{
		Seed:       *seed,
		Placement:  rfipad.Placement(*placement),
		Location:   *location,
		TxPowerDBm: *power,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Println("calibrating (static capture, 3 s)...")
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var got strings.Builder
	for i, ch := range strings.ToUpper(*word) {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "interrupted; recognized %q so far\n", got.String())
			return 0
		}
		rec := sim.NewRecognizer(cal)
		reports, dur, err := sim.WriteLetter(ch, *seed*1000+int64(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "letter %q: %v\n", ch, err)
			return 1
		}
		fmt.Printf("\nwriting %q (%d reads over %v)\n", ch, len(reports), dur.Round(time.Millisecond))
		handle := func(evs []rfipad.Event) {
			for _, ev := range evs {
				switch ev.Kind {
				case rfipad.StrokeDetected:
					fmt.Printf("  stroke %-8v span %v–%v\n", ev.Stroke.Motion,
						ev.Span.Start.Round(10*time.Millisecond), ev.Span.End.Round(10*time.Millisecond))
					if *verbose {
						fmt.Println(indent(ev.Stroke.Image.String(), "    "))
					}
				case rfipad.LetterDeduced:
					marker := "✗"
					if ev.LetterOK && ev.Letter == ch {
						marker = "✓"
					}
					fmt.Printf("  letter %q %s (%d strokes)\n", ev.Letter, marker, len(ev.Strokes))
					got.WriteRune(ev.Letter)
				}
			}
		}
		var batch rfipad.ReadingBatch
		rfipad.AppendReports(&batch, reports)
		handle(rec.IngestBatch(&batch))
		handle(rec.Flush(dur + 2*time.Second))
	}
	fmt.Printf("\nwrote %q, recognized %q\n", strings.ToUpper(*word), got.String())
	if got.String() != strings.ToUpper(*word) {
		return 1
	}
	return 0
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
