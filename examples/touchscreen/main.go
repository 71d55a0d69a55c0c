// Touchscreen: the paper's kiosk motivation (§I) — clicks, swipes, and
// scrolls drive an information terminal without anyone touching a
// screen. "−" swipes flip pages, "|" strokes scroll, and a push toward
// a tag clicks the highlighted entry (§II-C).
//
//	go run ./examples/touchscreen
package main

import (
	"fmt"
	"log"
	"time"

	"rfipad"
)

// kiosk is a minimal departure-board UI driven by recognized motions.
type kiosk struct {
	pages    [][]string
	page     int
	selected int
}

func (k *kiosk) handle(m rfipad.Motion) string {
	switch {
	case m.Shape == rfipad.Horizontal && m.Dir == rfipad.Forward:
		if k.page < len(k.pages)-1 {
			k.page++
			k.selected = 0
		}
		return "swipe → next page"
	case m.Shape == rfipad.Horizontal && m.Dir == rfipad.Reverse:
		if k.page > 0 {
			k.page--
			k.selected = 0
		}
		return "swipe ← previous page"
	case m.Shape == rfipad.Vertical && m.Dir == rfipad.Forward:
		if k.selected < len(k.pages[k.page])-1 {
			k.selected++
		}
		return "scroll ↓"
	case m.Shape == rfipad.Vertical && m.Dir == rfipad.Reverse:
		if k.selected > 0 {
			k.selected--
		}
		return "scroll ↑"
	case m.Shape == rfipad.Click:
		return fmt.Sprintf("click: open %q", k.pages[k.page][k.selected])
	default:
		return "ignored"
	}
}

func (k *kiosk) render() {
	fmt.Printf("  ┌─ page %d/%d ─────────────┐\n", k.page+1, len(k.pages))
	for i, item := range k.pages[k.page] {
		cursor := "  "
		if i == k.selected {
			cursor = "▶ "
		}
		fmt.Printf("  │ %s%-20s │\n", cursor, item)
	}
	fmt.Println("  └────────────────────────┘")
}

func main() {
	sim, err := rfipad.NewSimulator(rfipad.SimulatorConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	cal, err := sim.Calibrate(3 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	pipeline := sim.NewPipeline(cal)

	ui := &kiosk{pages: [][]string{
		{"Flight AA101 — gate B4", "Flight UA202 — gate C1", "Flight DL303 — gate A7"},
		{"Ward 3 — elevator left", "Radiology — floor 2", "Pharmacy — lobby"},
	}}

	// The visitor's gesture sequence.
	gestures := []rfipad.Motion{
		rfipad.M(rfipad.Vertical, rfipad.Forward),   // scroll down
		rfipad.M(rfipad.Vertical, rfipad.Forward),   // scroll down
		rfipad.M(rfipad.Horizontal, rfipad.Forward), // next page
		rfipad.M(rfipad.Vertical, rfipad.Forward),   // scroll down
		rfipad.M(rfipad.Click, 0),                   // open the entry
		rfipad.M(rfipad.Horizontal, rfipad.Reverse), // back
	}

	for i, g := range gestures {
		reports, dur := sim.PerformMotion(g, int64(500+i))
		var capture rfipad.ReadingBatch
		rfipad.AppendReports(&capture, reports)
		results := pipeline.RecognizeStream(&capture, nil, 0, dur+time.Second)
		if len(results) == 0 || !results[0].Result.Ok {
			fmt.Printf("gesture %v: not detected\n", g)
			continue
		}
		got := results[0].Result.Motion
		action := ui.handle(got)
		fmt.Printf("gesture %v → recognized %v → %s\n", g, got, action)
		ui.render()
	}
}
