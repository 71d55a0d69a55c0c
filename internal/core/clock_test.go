package core

import (
	"math"
	"slices"
	"testing"
	"time"
)

// stepAll steps every reading of b through c as the recognizer does
// (a confirmed held reading first, then the confirming one again) and
// returns the verdict for each row of b and the times c released, in
// order.
func stepAll(c *Clock, b *ReadingBatch) (verdicts []ClockVerdict, taken []time.Duration) {
	for i := 0; i < b.Len(); {
		v := c.Step(b, i)
		verdicts = append(verdicts, v)
		switch v {
		case ClockConfirmed:
			taken = append(taken, c.Ready().Times[0])
			continue
		case ClockTake:
			taken = append(taken, b.Times[i])
		}
		i++
	}
	return verdicts, taken
}

// TestClockRule pins the one time rule. The late cases take the inputs
// the sanitizer's time check used to reject: a reading more than
// maxRegression behind the clock is late, one inside that window is
// reordering and taken, and a fresh clock takes its first reading at 0.
// A reading more than maxRegression ahead is held until the next
// reading confirms it (within maxRegression of it) or agrees with the
// clock (which drops it as ahead); at most maxHeld are held, the oldest
// dropped first.
func TestClockRule(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	batch := func(times ...time.Duration) *ReadingBatch {
		b := new(ReadingBatch)
		for i, at := range times {
			b.Append(at, 1, -60, int32(i))
		}
		return b
	}
	cases := []struct {
		name        string
		start       time.Duration
		floor       time.Duration
		times       []time.Duration
		verdicts    []ClockVerdict
		taken       []time.Duration
		now         time.Duration
		late, ahead uint64
	}{
		{name: "clock regression", start: ms(10000), times: []time.Duration{ms(1000)},
			verdicts: []ClockVerdict{ClockLate}, now: ms(10000), late: 1},
		{name: "inside the regression window", start: ms(10000), times: []time.Duration{ms(9500)},
			verdicts: []ClockVerdict{ClockTake}, taken: []time.Duration{ms(9500)}, now: ms(10000)},
		{name: "first reading", times: []time.Duration{0},
			verdicts: []ClockVerdict{ClockTake}, taken: []time.Duration{0}},
		{name: "before the floor", start: ms(5000), floor: ms(4800), times: []time.Duration{ms(4700), ms(4800)},
			verdicts: []ClockVerdict{ClockLate, ClockTake}, taken: []time.Duration{ms(4800)}, now: ms(5000), late: 1},
		// The sanitizer's mixed batch, on a clock at its first reading:
		// 3 s and 4.8 s lie more than maxRegression behind 5 s and 6 s.
		{name: "mixed batch", start: ms(5000),
			times:    []time.Duration{ms(5000), ms(3000), ms(4500), ms(4500), ms(6000), ms(4800)},
			verdicts: []ClockVerdict{ClockTake, ClockLate, ClockTake, ClockTake, ClockTake, ClockLate},
			taken:    []time.Duration{ms(5000), ms(4500), ms(4500), ms(6000)}, now: ms(6000), late: 2},
		{name: "jump confirmed", start: ms(2997),
			times:    []time.Duration{ms(4999), ms(5001), ms(5003)},
			verdicts: []ClockVerdict{ClockHeld, ClockConfirmed, ClockTake, ClockTake},
			taken:    []time.Duration{ms(4999), ms(5001), ms(5003)}, now: ms(5003)},
		{name: "lone reading ahead", start: ms(8000),
			times:    []time.Duration{ms(68000), ms(8001)},
			verdicts: []ClockVerdict{ClockHeld, ClockTake},
			taken:    []time.Duration{ms(8001)}, now: ms(8001), ahead: 1},
		{name: "glitch between a jump's first two readings", start: ms(2997),
			times:    []time.Duration{ms(4999), ms(64999), ms(5001)},
			verdicts: []ClockVerdict{ClockHeld, ClockHeld, ClockConfirmed, ClockTake},
			taken:    []time.Duration{ms(4999), ms(5001)}, now: ms(5001), ahead: 1},
		{name: "glitch before a jump", start: ms(2997),
			times:    []time.Duration{ms(62997), ms(4999), ms(5001)},
			verdicts: []ClockVerdict{ClockHeld, ClockHeld, ClockConfirmed, ClockTake},
			taken:    []time.Duration{ms(4999), ms(5001)}, now: ms(5001), ahead: 1},
		{name: "late reading keeps the hold", start: ms(2997),
			times:    []time.Duration{ms(4999), ms(1000), ms(5001)},
			verdicts: []ClockVerdict{ClockHeld, ClockLate, ClockConfirmed, ClockTake},
			taken:    []time.Duration{ms(4999), ms(5001)}, now: ms(5001), late: 1},
		{name: "confirmed by an earlier stamp", start: ms(2997),
			times:    []time.Duration{ms(5001), ms(4999)},
			verdicts: []ClockVerdict{ClockHeld, ClockConfirmed, ClockTake},
			taken:    []time.Duration{ms(5001), ms(4999)}, now: ms(5001)},
		{name: "the oldest held reading makes room", start: ms(1000),
			times:    []time.Duration{ms(10000), ms(20000), ms(30000), ms(10500), ms(30500)},
			verdicts: []ClockVerdict{ClockHeld, ClockHeld, ClockHeld, ClockHeld, ClockConfirmed, ClockTake},
			taken:    []time.Duration{ms(30000), ms(30500)}, now: ms(30500), ahead: 3},
	}
	for _, tc := range cases {
		c := ClockAt(tc.start)
		c.floor = tc.floor
		verdicts, taken := stepAll(&c, batch(tc.times...))
		late, ahead := c.takeDrops()
		if !slices.Equal(verdicts, tc.verdicts) || !slices.Equal(taken, tc.taken) ||
			c.Now() != tc.now || late != tc.late || ahead != tc.ahead {
			t.Errorf("%s: verdicts %v, taken %v, clock %v, %d late, %d ahead; want %v, %v, %v, %d, %d",
				tc.name, verdicts, taken, c.Now(), late, ahead, tc.verdicts, tc.taken, tc.now, tc.late, tc.ahead)
		}
	}

	// The rule reads stamps alone: a reading whose values the sanitizer
	// would reject is judged like any other.
	c := ClockAt(time.Second)
	b := batch(2 * time.Second)
	b.Phases[0] = math.NaN()
	if v := c.Step(b, 0); v != ClockTake || c.Now() != 2*time.Second {
		t.Errorf("NaN-phase reading: verdict %v, clock %v; want take at 2s", v, c.Now())
	}
}
