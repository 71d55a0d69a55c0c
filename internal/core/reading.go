// Package core implements RFIPad's recognition pipeline — the paper's
// contribution (§III): diversity suppression of per-tag phase streams,
// the accumulative phase-difference disturbance metric, image-assisted
// motion recognition via Otsu thresholding, RSS-based direction
// estimation, stroke segmentation from continuous phase streams, and
// letter composition over the stroke grammar.
package core

import (
	"sort"
	"time"

	"rfipad/internal/tagmodel"
)

// Reading is one tag report as a record: the tuple of §II-B (ID,
// channel parameters, timestamp). The pipeline takes readings as
// ReadingBatch columns; the record serves only callers that still hold
// records (Calibrate, ReadingBatch.AppendReading and
// ReadingBatch.Reading).
type Reading struct {
	// TagIndex is the tag's row-major index in the array.
	TagIndex int
	// EPC is the tag identifier from the air protocol.
	EPC tagmodel.EPC
	// Time is the read timestamp.
	Time time.Duration
	// Phase is the reported phase in [0, 2π).
	Phase float64
	// RSS is the reported signal strength in dBm.
	RSS float64
	// Doppler is the reported Doppler shift in Hz.
	Doppler float64
}

// Grid describes the tag-array geometry the pipeline maps indices onto.
type Grid struct {
	Rows, Cols int
}

// NumTags returns the number of tags in the grid.
func (g Grid) NumTags() int { return g.Rows * g.Cols }

// RowCol converts a row-major tag index to grid coordinates.
func (g Grid) RowCol(index int) (row, col int) {
	return index / g.Cols, index % g.Cols
}

// Norm returns the tag's position in normalized canvas coordinates
// (x right along columns, y up along rows, both in [0,1]).
func (g Grid) Norm(index int) (x, y float64) {
	r, c := g.RowCol(index)
	if g.Cols > 1 {
		x = float64(c) / float64(g.Cols-1)
	}
	if g.Rows > 1 {
		y = float64(r) / float64(g.Rows-1)
	}
	return x, y
}

// tagSplit is one window's readings split by tag into columns: tag i's
// readings are the run [lo[i], hi[i]) of times, phases and rss, in time
// order, so hi[i]−lo[i] is the tag's read count in the window.
// Readings with out-of-range tags are dropped, as are same-timestamp
// duplicates of one tag: a reader can physically interrogate a tag
// only once per instant, so duplicates are transport artifacts
// (reconnect replay overlap, a duplicated report frame) that would
// otherwise distort the accumulative phase difference's sample count.
// The duplicate that arrived first wins — the policy the streaming
// recognizer applies when it drops a duplicate at ingest, so capture
// windows and history windows see the same surviving sample.
//
// The zero value is ready, and a split reuses its buffers, so a caller
// that splits windows repeatedly allocates nothing once they reach the
// longest window.
type tagSplit struct {
	lo, hi []int
	times  []time.Duration
	phases []float64
	rss    []float64
}

// split fills s from one window's columns with one counting pass over
// the tags and one scatter pass. The scatter keeps arrival order within
// each tag, and only a run that is not strictly increasing in time
// gets a stable sort and deduplication; a time-sorted, duplicate-free
// window (a recognizer's history range) is never sorted.
func (s *tagSplit) split(w ReadingBatch, numTags int) {
	s.lo = grow(s.lo, numTags)
	s.hi = grow(s.hi, numTags)
	clear(s.hi)
	for _, tag := range w.TagIndices {
		if tag >= 0 && int(tag) < numTags {
			s.hi[tag]++
		}
	}
	n := 0
	for i, count := range s.hi {
		s.lo[i], s.hi[i] = n, n
		n += count
	}
	s.times = grow(s.times, n)
	s.phases = grow(s.phases, n)
	s.rss = grow(s.rss, n)
	for k, tag := range w.TagIndices {
		if tag < 0 || int(tag) >= numTags {
			continue
		}
		j := s.hi[tag]
		s.hi[tag]++
		s.times[j], s.phases[j], s.rss[j] = w.Times[k], w.Phases[k], w.RSS[k]
	}
	for i := range s.lo {
		if r := s.run(i); !r.increasing() {
			s.hi[i] = s.lo[i] + r.sortDedup()
		}
	}
}

// run returns tag i's readings. Its columns alias the split's.
func (s *tagSplit) run(i int) tagRun {
	lo, hi := s.lo[i], s.hi[i]
	return tagRun{s.times[lo:hi], s.phases[lo:hi], s.rss[lo:hi]}
}

// tagRun is one tag's readings in a split, as parallel columns.
type tagRun struct {
	times  []time.Duration
	phases []float64
	rss    []float64
}

// increasing reports whether the run is strictly increasing in time:
// sorted, with no duplicate timestamps.
func (r tagRun) increasing() bool {
	for k := 1; k < len(r.times); k++ {
		if r.times[k] <= r.times[k-1] {
			return false
		}
	}
	return true
}

// sortDedup sorts the run by time, stably, then moves the first
// reading of each timestamp to the front and returns how many there
// are.
func (r tagRun) sortDedup() int {
	sort.Stable(r)
	kept := 1
	for k := 1; k < len(r.times); k++ {
		if r.times[k] == r.times[kept-1] {
			continue
		}
		r.times[kept], r.phases[kept], r.rss[kept] = r.times[k], r.phases[k], r.rss[k]
		kept++
	}
	return kept
}

func (r tagRun) Len() int           { return len(r.times) }
func (r tagRun) Less(i, j int) bool { return r.times[i] < r.times[j] }
func (r tagRun) Swap(i, j int) {
	r.times[i], r.times[j] = r.times[j], r.times[i]
	r.phases[i], r.phases[j] = r.phases[j], r.phases[i]
	r.rss[i], r.rss[j] = r.rss[j], r.rss[i]
}

// grow returns a slice of exactly length n, reusing buf's backing array
// when its capacity allows.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
