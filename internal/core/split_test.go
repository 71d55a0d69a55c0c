package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// splitOf splits a window fixture by tag the way the pipeline does.
func splitOf(rs []Reading, numTags int) *tagSplit {
	var sc DisturbanceScratch
	sc.split.split(*batchOf(rs), numTags)
	return &sc.split
}

// TestTagSplitMatchesStableSortDedup checks the split against its
// definition on random windows: shuffled arrival order, same-time
// duplicates of one tag (some exact copies, some with other values),
// same-time reads of different tags, and tags that are −1 or out of
// range. Each tag's run must equal that tag's readings in arrival
// order, stably sorted by time, with the first arrival of each
// timestamp kept. One split is reused across every window, as the
// pooled scratch reuses it.
func TestTagSplitMatchesStableSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var split tagSplit
	for trial := 0; trial < 400; trial++ {
		numTags := 1 + rng.Intn(30)
		var rs []Reading
		for k := rng.Intn(600); k > 0; k-- {
			rs = append(rs, Reading{
				TagIndex: rng.Intn(numTags+4) - 2, // −2..numTags+1: some out of range
				Time:     time.Duration(rng.Intn(200)) * time.Millisecond,
				Phase:    rng.Float64() * 2 * math.Pi,
				RSS:      -60 + rng.NormFloat64(),
			})
		}
		for k := len(rs) / 10; k > 0 && len(rs) > 0; k-- {
			dup := rs[rng.Intn(len(rs))]
			if rng.Intn(2) == 0 {
				dup.Phase, dup.RSS = -1, -1 // a conflicting duplicate
			}
			rs = append(rs, dup)
		}
		switch trial % 4 {
		case 0:
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		case 1:
			// Sorted, as a history range: no run needs a sort.
			slices.SortStableFunc(rs, func(a, b Reading) int { return cmp.Compare(a.Time, b.Time) })
		}

		var b ReadingBatch
		for _, r := range rs {
			b.AppendReading(r)
		}
		split.split(b, numTags)
		if len(split.lo) != numTags {
			t.Fatalf("trial %d: split has %d tags, want %d", trial, len(split.lo), numTags)
		}
		for i := 0; i < numTags; i++ {
			var want []Reading
			for _, r := range rs {
				if r.TagIndex == i {
					want = append(want, r)
				}
			}
			slices.SortStableFunc(want, func(a, b Reading) int { return cmp.Compare(a.Time, b.Time) })
			want = slices.CompactFunc(want, func(a, b Reading) bool { return a.Time == b.Time })
			got := split.run(i)
			if len(got.times) != len(want) || len(got.phases) != len(want) || len(got.rss) != len(want) {
				t.Fatalf("trial %d tag %d: run has %d readings, want %d", trial, i, len(got.times), len(want))
			}
			for k, r := range want {
				if got.times[k] != r.Time || got.phases[k] != r.Phase || got.rss[k] != r.RSS {
					t.Fatalf("trial %d tag %d reading %d: got (%v, %v, %v), want (%v, %v, %v)",
						trial, i, k, got.times[k], got.phases[k], got.rss[k], r.Time, r.Phase, r.RSS)
				}
			}
		}
	}
}
