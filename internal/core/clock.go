package core

import "time"

const (
	// maxRegression is how far a reading may lie from its stream's
	// clock, either way, and still be taken as it comes: behind it, the
	// transport's resume overlap plus reorder tolerance; ahead of it,
	// more than any gap between two readings of a live stream.
	maxRegression = time.Second
	// maxHeld is how many readings ahead of the clock a Clock defers at
	// once: a real jump's first reading, and one glitch that lands
	// before the reading that confirms it.
	maxHeld = 2
)

// Clock is one stream's time and the only rule that reads it. Its value
// is the newest reading time the stream has taken. The prelude steps it
// until calibration, then hands it to the recognizer (UseClock), which
// steps it from then on; the flush horizon, the checkpoint's stream time
// and frame cursor, and Stream.LastTime all read it.
//
// Every reading passes Step, which judges it against the clock alone:
//
//   - more than maxRegression behind the clock, or before its floor
//     (the recognizer's trimmed history start), it is late;
//   - within maxRegression of the clock, it is taken, and every held
//     reading is dropped as ahead;
//   - more than maxRegression ahead, it is held, at most maxHeld at a
//     time (the oldest is dropped as ahead to make room);
//   - more than maxRegression ahead but within maxRegression of a held
//     reading, it confirms that reading: the clock jumps there, the
//     other held readings are dropped as ahead, and the confirmed one is
//     processed first, in its place.
//
// So no lone reading moves the clock, however far off its stamp: one
// stamped ahead is dropped once the next reading agrees with the clock,
// while a real jump (a gap in the writing, a reader reboot) is confirmed
// by the reading after it and loses nothing. The rule reads the reading
// sequence alone, so how a stream is cut into batches never changes it.
// The held readings live in columns the clock reuses. The zero value is
// the clock of a stream that has taken nothing yet.
type Clock struct {
	now   time.Duration
	floor time.Duration
	held  ReadingBatch
	ready ReadingBatch
	// lateDrops and aheadDrops count the readings dropped since the
	// recognizer last folded them into its telemetry.
	lateDrops, aheadDrops uint64
}

// ClockVerdict is what Clock.Step decided about one reading.
type ClockVerdict uint8

// Clock verdicts.
const (
	// ClockTake: process the reading now.
	ClockTake ClockVerdict = iota
	// ClockLate: the reading is dropped as late.
	ClockLate
	// ClockHeld: the clock deferred the reading.
	ClockHeld
	// ClockConfirmed: the reading confirmed a held one. Process
	// Ready's reading first, then step the same reading again.
	ClockConfirmed
)

// ClockAt returns a clock that reads t, as a restored stream's does.
func ClockAt(t time.Duration) Clock { return Clock{now: t} }

// Now returns the newest reading time the stream has taken.
func (c *Clock) Now() time.Duration { return c.now }

// Late reports whether a reading stamped t is late: more than
// maxRegression behind the clock, or before its floor.
func (c *Clock) Late(t time.Duration) bool {
	return t < c.floor || t < c.now-maxRegression
}

// Ready returns, as a one-reading batch, the held reading that the last
// ClockConfirmed verdict released. It is valid until the next Step.
func (c *Clock) Ready() *ReadingBatch { return &c.ready }

// Step judges row i of b by the clock's rule and advances the clock.
// After ClockConfirmed the clock reads the confirmed reading's time;
// stepping row i again then takes it.
func (c *Clock) Step(b *ReadingBatch, i int) ClockVerdict {
	t := b.Times[i]
	if c.Late(t) {
		c.lateDrops++
		return ClockLate
	}
	if t <= c.now+maxRegression {
		c.dropHeld()
		c.now = max(c.now, t)
		return ClockTake
	}
	for k, h := range c.held.Times {
		if t >= h-maxRegression && t <= h+maxRegression {
			c.ready.Reset()
			c.ready.Append(h, c.held.Phases[k], c.held.RSS[k], c.held.TagIndices[k])
			c.aheadDrops += uint64(c.held.Len() - 1)
			c.held.Reset()
			c.now = h
			return ClockConfirmed
		}
	}
	if c.held.Len() == maxHeld {
		c.aheadDrops++
		c.held.compactTo(1)
	}
	c.held.Append(t, b.Phases[i], b.RSS[i], b.TagIndices[i])
	return ClockHeld
}

// dropHeld drops every held reading as ahead.
func (c *Clock) dropHeld() {
	c.aheadDrops += uint64(c.held.Len())
	c.held.Reset()
}

// takeDrops returns the late and ahead drops counted since the last
// call and clears them.
func (c *Clock) takeDrops() (late, ahead uint64) {
	late, ahead = c.lateDrops, c.aheadDrops
	c.lateDrops, c.aheadDrops = 0, 0
	return late, ahead
}
