package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// synthesizeDigest is the SHA-256 of every field of every report
// Synthesize returns for the captures below: EPC, antenna, phase, RSS,
// Doppler and timestamp. rfipad-readerd, the scenario matrix, the
// benchmark and the engine, live and cluster tests all replay these
// captures, so a change to the simulator or to how a capture is
// assembled must leave the report bytes as they are, or update this
// digest and say why.
const synthesizeDigest = "8a33f7c9494c9cd0d82d39486ebb1d6d57802fbd1af9e121de65b37ea62cc180"

func TestSynthesizeReportsDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	reports := 0
	for _, c := range []struct {
		seed int64
		word string
	}{{2201, "THE"}, {2202, "BOX"}, {7, "HI"}} {
		reps, err := Synthesize(c.seed, c.word, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(reps)))
		for i, r := range reps {
			if i > 0 && r.Timestamp < reps[i-1].Timestamp {
				t.Fatalf("seed %d %q: report %d at %v precedes report %d at %v",
					c.seed, c.word, i, r.Timestamp, i-1, reps[i-1].Timestamp)
			}
			h.Write(r.EPC[:])
			put(uint64(r.AntennaID))
			put(math.Float64bits(r.PhaseRad))
			put(math.Float64bits(r.RSSdBm))
			put(math.Float64bits(r.DopplerHz))
			put(uint64(r.Timestamp))
		}
		reports += len(reps)
	}
	t.Logf("%d reports hashed", reports)
	if got := hex.EncodeToString(h.Sum(nil)); got != synthesizeDigest {
		t.Errorf("report digest = %s, want %s", got, synthesizeDigest)
	}
}
