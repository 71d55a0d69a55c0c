package core

import (
	"math"
	"slices"
	"sync"
	"time"
)

// ReadingBatch is the columnar (struct-of-arrays) form of a run of
// readings: four parallel slices, one per hot field, indexed together.
// It is the one form every pipeline entry point takes, online and
// offline. The ingest path moves batches of readings as columns end to
// end — decode, sanitize, shard mailbox, recognizer — so the
// per-reading cost is a few column writes instead of a 64-byte struct
// copy, and the recognizer's bulk append degenerates to four copy
// calls.
//
// EPC and Doppler are deliberately absent: nothing downstream of decode
// reads them (the pipeline keys on TagIndex and consumes Time, Phase,
// RSS), so carrying them would only dilute the cache lines the hot loop
// walks.
//
// The zero value is an empty batch. Batches are append-only between
// Resets; the backing arrays are retained across Reset so a reused
// batch reaches its high-water capacity once and then allocates
// nothing.
type ReadingBatch struct {
	// Times holds each reading's timestamp. The other columns are
	// parallel to it.
	Times []time.Duration
	// Phases holds the reported phases in [0, 2π).
	Phases []float64
	// RSS holds the reported signal strengths in dBm.
	RSS []float64
	// TagIndices holds each reading's row-major tag index. Indices that
	// cannot be represented in an int32 are stored as -1, which every
	// consumer treats as out-of-range (a grid cannot have 2³¹ tags).
	TagIndices []int32
}

// Len returns the number of readings in the batch.
func (b *ReadingBatch) Len() int { return len(b.Times) }

// Reset empties the batch, keeping the backing arrays for reuse.
func (b *ReadingBatch) Reset() {
	b.Times = b.Times[:0]
	b.Phases = b.Phases[:0]
	b.RSS = b.RSS[:0]
	b.TagIndices = b.TagIndices[:0]
}

// Append adds one reading from its hot fields.
func (b *ReadingBatch) Append(t time.Duration, phase, rss float64, tag int32) {
	b.Times = append(b.Times, t)
	b.Phases = append(b.Phases, phase)
	b.RSS = append(b.RSS, rss)
	b.TagIndices = append(b.TagIndices, tag)
}

// AppendReading adds one reading record, narrowing its tag index to the
// column type (out-of-int32-range indices become -1; see TagIndices).
// It and Reading serve callers that still hold records.
func (b *ReadingBatch) AppendReading(rd Reading) {
	b.Append(rd.Time, rd.Phase, rd.RSS, NarrowTag(rd.TagIndex))
}

// NarrowTag converts a tag index to the column representation:
// out-of-int32-range indices become -1, which every consumer treats as
// out-of-range exactly as it treats the original index.
func NarrowTag(tag int) int32 {
	if tag < math.MinInt32 || tag > math.MaxInt32 {
		return -1
	}
	return int32(tag)
}

// Reading materializes reading i as a record. EPC and Doppler are zero
// — the columns do not carry them.
func (b *ReadingBatch) Reading(i int) Reading {
	return Reading{
		TagIndex: int(b.TagIndices[i]),
		Time:     b.Times[i],
		Phase:    b.Phases[i],
		RSS:      b.RSS[i],
	}
}

// Slice returns a view of readings [i, j) sharing this batch's backing
// arrays. The view must not be appended to.
func (b *ReadingBatch) Slice(i, j int) ReadingBatch {
	return ReadingBatch{
		Times:      b.Times[i:j:j],
		Phases:     b.Phases[i:j:j],
		RSS:        b.RSS[i:j:j],
		TagIndices: b.TagIndices[i:j:j],
	}
}

// Window returns the readings with Time in [start, end), in arrival
// order. Captures are time-sorted in practice, and a sorted batch's
// window is the Slice view located by two binary searches: no copy.
// An unsorted batch falls back to a filtered copy.
func (b *ReadingBatch) Window(start, end time.Duration) ReadingBatch {
	if slices.IsSorted(b.Times) {
		lo, _ := slices.BinarySearch(b.Times, start)
		hi, _ := slices.BinarySearch(b.Times[lo:], end)
		return b.Slice(lo, lo+hi)
	}
	var out ReadingBatch
	for i, t := range b.Times {
		if t >= start && t < end {
			out.Append(t, b.Phases[i], b.RSS[i], b.TagIndices[i])
		}
	}
	return out
}

// appendColumns bulk-appends parallel column runs (which must have
// equal lengths) — four copies, no per-element work.
func (b *ReadingBatch) appendColumns(times []time.Duration, phases, rss []float64, tags []int32) {
	b.Times = append(b.Times, times...)
	b.Phases = append(b.Phases, phases...)
	b.RSS = append(b.RSS, rss...)
	b.TagIndices = append(b.TagIndices, tags...)
}

// insertAt opens one slot at live index i (relative to offset head) and
// stores the reading there, shifting the tail of every column up.
func (b *ReadingBatch) insertAt(head, i int, t time.Duration, phase, rss float64, tag int32) {
	b.Append(0, 0, 0, 0)
	at := head + i
	copy(b.Times[at+1:], b.Times[at:])
	copy(b.Phases[at+1:], b.Phases[at:])
	copy(b.RSS[at+1:], b.RSS[at:])
	copy(b.TagIndices[at+1:], b.TagIndices[at:])
	b.Times[at] = t
	b.Phases[at] = phase
	b.RSS[at] = rss
	b.TagIndices[at] = tag
}

// regrow moves readings [head, Len()) to the front of new arrays of
// capacity c, which must be at least their number.
func (b *ReadingBatch) regrow(head, c int) {
	b.Times = append(make([]time.Duration, 0, c), b.Times[head:]...)
	b.Phases = append(make([]float64, 0, c), b.Phases[head:]...)
	b.RSS = append(make([]float64, 0, c), b.RSS[head:]...)
	b.TagIndices = append(make([]int32, 0, c), b.TagIndices[head:]...)
}

// compactTo drops the first head readings in place, reusing the backing
// arrays.
func (b *ReadingBatch) compactTo(head int) {
	n := copy(b.Times, b.Times[head:])
	b.Times = b.Times[:n]
	b.Phases = b.Phases[:copy(b.Phases, b.Phases[head:])]
	b.RSS = b.RSS[:copy(b.RSS, b.RSS[head:])]
	b.TagIndices = b.TagIndices[:copy(b.TagIndices, b.TagIndices[head:])]
}

// batchPool recycles ReadingBatch buffers across the transport → engine
// → recognizer pipeline, so a steady stream settles into zero
// per-batch allocation regardless of how many batches are in flight.
var batchPool = sync.Pool{New: func() any { return new(ReadingBatch) }}

// GetBatch returns an empty batch from the pool. Return it with
// PutBatch once its readings have been consumed.
func GetBatch() *ReadingBatch {
	return batchPool.Get().(*ReadingBatch)
}

// PutBatch resets a batch and returns it to the pool. The caller must
// not touch the batch (or any Slice view of it) afterwards.
func PutBatch(b *ReadingBatch) {
	if b == nil {
		return
	}
	b.Reset()
	batchPool.Put(b)
}
