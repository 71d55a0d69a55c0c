package live_test

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/tagmodel"
)

// FuzzAppendReports requires AppendReports, which grows each column
// once and fills it by index, to build the batch the per-reading
// reference loop builds, bit for bit, after whatever the batch already
// held. The reports take every field's bits from the fuzz input, so
// EPCs whose serial does not fit a tag column (NarrowTag's −1) and any
// float come up.
func FuzzAppendReports(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 3*46), uint8(2))
	epc := tagmodel.MakeEPC(7)
	f.Add(append(epc[:], make([]byte, 34)...), uint8(1))
	big := make([]byte, 46)
	binary.BigEndian.PutUint32(big[8:12], math.MaxUint32)
	f.Add(big, uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, held uint8) {
		var reports []llrp.TagReport
		for ; len(data) >= 46; data = data[46:] {
			reports = append(reports, llrp.TagReport{
				EPC:       tagmodel.EPC(data[0:12]),
				AntennaID: binary.BigEndian.Uint16(data[12:14]),
				PhaseRad:  math.Float64frombits(binary.BigEndian.Uint64(data[14:22])),
				RSSdBm:    math.Float64frombits(binary.BigEndian.Uint64(data[22:30])),
				DopplerHz: math.Float64frombits(binary.BigEndian.Uint64(data[30:38])),
				Timestamp: time.Duration(binary.BigEndian.Uint64(data[38:46])),
			})
		}
		var got, want core.ReadingBatch
		for i := 0; i < int(held%8); i++ {
			got.Append(time.Duration(i), float64(i), -float64(i), int32(i))
			want.Append(time.Duration(i), float64(i), -float64(i), int32(i))
		}
		live.AppendReports(&got, reports)
		referenceAppendReports(&want, reports)
		if got.Len() != want.Len() || len(got.Phases) != want.Len() ||
			len(got.RSS) != want.Len() || len(got.TagIndices) != want.Len() {
			t.Fatalf("column lengths %d/%d/%d/%d, want %d", len(got.Times), len(got.Phases),
				len(got.RSS), len(got.TagIndices), want.Len())
		}
		for i := range want.Times {
			if got.Times[i] != want.Times[i] || got.TagIndices[i] != want.TagIndices[i] ||
				math.Float64bits(got.Phases[i]) != math.Float64bits(want.Phases[i]) ||
				math.Float64bits(got.RSS[i]) != math.Float64bits(want.RSS[i]) {
				t.Fatalf("reading %d: %v %v %v %d, want %v %v %v %d", i,
					got.Times[i], got.Phases[i], got.RSS[i], got.TagIndices[i],
					want.Times[i], want.Phases[i], want.RSS[i], want.TagIndices[i])
			}
		}
	})
}

// referenceAppendReports is AppendReports as first written, one
// Append per reading.
func referenceAppendReports(dst *core.ReadingBatch, reports []llrp.TagReport) {
	for i := range reports {
		rep := &reports[i]
		dst.Append(rep.Timestamp, rep.PhaseRad, rep.RSSdBm,
			core.NarrowTag(tagmodel.SerialOf(rep.EPC)-1))
	}
}

// TestAppendReportsAllocs pins AppendReports at one allocation per
// column for a batch it has to grow (a per-reading append regrows each
// column several times over a 290-report frame), and at none for a
// batch whose columns already have room.
func TestAppendReportsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	reports := make([]llrp.TagReport, 290)
	for i := range reports {
		reports[i] = llrp.TagReport{EPC: tagmodel.MakeEPC(i%25 + 1), PhaseRad: 1, RSSdBm: -50,
			Timestamp: time.Duration(i) * time.Millisecond}
	}
	if avg := testing.AllocsPerRun(100, func() {
		var b core.ReadingBatch
		live.AppendReports(&b, reports)
	}); avg != 4 {
		t.Errorf("appending to an empty batch: %.2f allocs, want 4 (one per column)", avg)
	}
	var b core.ReadingBatch
	live.AppendReports(&b, reports)
	if avg := testing.AllocsPerRun(100, func() {
		b.Reset()
		live.AppendReports(&b, reports)
	}); avg != 0 {
		t.Errorf("appending to a batch with room: %.2f allocs, want 0", avg)
	}
}
