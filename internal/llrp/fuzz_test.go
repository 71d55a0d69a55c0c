package llrp

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"time"

	"rfipad/internal/tagmodel"
)

// FuzzReadMessage asserts the frame parser never panics on arbitrary
// bytes and that every frame it accepts survives a write/read round
// trip unchanged. It then reads the same bytes as a stream of frames
// through one reused frame buffer, as a connection does, in reads of
// several sizes and from buffers of several starting sizes: every
// frame, and the error that ends the stream, must be what fresh
// ReadMessage calls return.
func FuzzReadMessage(f *testing.F) {
	var stream bytes.Buffer
	seed := func(m Message) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err == nil {
			f.Add(buf.Bytes())
			stream.Write(buf.Bytes())
		}
	}
	seed(Message{Type: MsgKeepalive})
	seed(Message{Type: MsgReaderEvent, Payload: []byte(EventReady)})
	seed(Message{Type: MsgReaderEvent, Payload: []byte(EventComplete)})
	seed(Message{Type: MsgStartROSpec})
	seed(Message{Type: MsgStartROSpec, Payload: EncodeResume(1500 * time.Millisecond)})
	payload, err := EncodeReports([]TagReport{
		{EPC: tagmodel.MakeEPC(3), AntennaID: 1, PhaseRad: 1.25, RSSdBm: -51.5, DopplerHz: 12.25, Timestamp: 42 * time.Millisecond},
		{EPC: tagmodel.MakeEPC(9), AntennaID: 2, PhaseRad: 6.1, RSSdBm: -60, DopplerHz: -7.5, Timestamp: 43 * time.Millisecond},
	})
	if err != nil {
		f.Fatal(err)
	}
	seed(Message{Type: MsgROAccessReport, Payload: payload})
	f.Add(bytes.Clone(stream.Bytes()))                        // every frame above, back to back
	f.Add(append(bytes.Clone(stream.Bytes()), 0xA5, 0x5A, 1)) // ... then a cut header
	f.Add(stream.Bytes()[:stream.Len()-5])                    // ... with the last payload cut
	f.Add([]byte{0xA5, 0x5A})                                 // truncated header
	f.Add([]byte{0xA5, 0x5A, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF})   // oversized length

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int{0, 9, frameBufSize} {
			for _, rd := range []func(io.Reader) io.Reader{
				func(r io.Reader) io.Reader { return r },
				iotest.OneByteReader, iotest.HalfReader, iotest.DataErrReader,
			} {
				checkFrameStream(t, data, frameReader{rd: rd(bytes.NewReader(data)), buf: make([]byte, size)})
			}
		}
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if back.Type != msg.Type || !bytes.Equal(back.Payload, msg.Payload) {
			t.Errorf("round trip changed the frame: %v %q -> %v %q", msg.Type, msg.Payload, back.Type, back.Payload)
		}
	})
}

// checkFrameStream reads data frame by frame through fr and through
// fresh ReadMessage calls and fails on the first difference. Each
// frame is compared before the next read, which may overwrite it.
func checkFrameStream(t *testing.T, data []byte, fr frameReader) {
	t.Helper()
	ref := bytes.NewReader(data)
	for k := 0; ; k++ {
		want, werr := ReadMessage(ref)
		got, gerr := fr.next()
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("frame %d: error %v, ReadMessage says %v", k, gerr, werr)
		}
		if werr != nil {
			return
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: %v %q, ReadMessage says %v %q", k, got.Type, got.Payload, want.Type, want.Payload)
		}
	}
}

// FuzzDecodeReports asserts the report decoder never panics and that
// accepted payloads are internally consistent: the length matches the
// declared count and the decoded batch re-encodes and re-decodes to the
// same shape. The in-place kernels must also match the per-field
// reference loops bit for bit: decoding the payload, into a fresh or a
// dirty reused slice, and encoding reports built from arbitrary bytes
// (any float, negative and far out of range ones included).
func FuzzDecodeReports(f *testing.F) {
	for _, reports := range [][]TagReport{
		{},
		{{EPC: tagmodel.MakeEPC(1), Timestamp: time.Millisecond}},
		{
			{EPC: tagmodel.MakeEPC(5), AntennaID: 1, PhaseRad: 3.14, RSSdBm: -44.25, DopplerHz: 2.5, Timestamp: 7 * time.Millisecond},
			{EPC: tagmodel.MakeEPC(6), AntennaID: 1, PhaseRad: 0.01, RSSdBm: -70, DopplerHz: -12, Timestamp: 8 * time.Millisecond},
		},
	} {
		payload, err := EncodeReports(reports)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{0, 1}) // count 1, no entries

	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncodeMatchesReference(t, reportsFromBytes(data))
		want, werr := referenceDecodeReports(data)
		dirty := make([]TagReport, 3, 8)
		for i := range dirty {
			dirty[i] = TagReport{EPC: tagmodel.MakeEPC(99), AntennaID: 7, PhaseRad: math.NaN(), RSSdBm: 1, DopplerHz: 2, Timestamp: -1}
		}
		for _, dst := range [][]TagReport{nil, dirty} {
			got, gerr := DecodeReportsInto(dst, data)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("decode error %v, reference says %v", gerr, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d reports, reference %d", len(got), len(want))
			}
			for i := range got {
				if !sameReport(got[i], want[i]) {
					t.Fatalf("report %d: %+v, reference %+v", i, got[i], want[i])
				}
			}
		}
		if werr != nil {
			return
		}
		reports := want
		if len(data) != 2+entryLen*len(reports) {
			t.Fatalf("accepted %d bytes as %d reports (want %d bytes)", len(data), len(reports), 2+entryLen*len(reports))
		}
		enc, err := EncodeReports(reports)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		back, err := DecodeReports(enc)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if len(back) != len(reports) {
			t.Errorf("round trip changed the batch size: %d -> %d", len(reports), len(back))
		}
		for i := range back {
			if back[i].EPC != reports[i].EPC {
				t.Errorf("report %d EPC changed in round trip", i)
			}
		}
	})
}

// checkEncodeMatchesReference encodes reports with EncodeReports and
// as a frame the reader daemon sends, and requires the reference
// encoder's bytes from both.
func checkEncodeMatchesReference(t *testing.T, reports []TagReport) {
	t.Helper()
	want := referenceEncodeReports(reports)
	got, err := EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeReports:\n got %x\nwant %x", got, want)
	}
	frame := appendReports(appendHeader([]byte("prefix"), MsgROAccessReport, reportsLen(len(reports))), reports)
	if typ, n, err := parseHeader(frame[6:]); err != nil || typ != MsgROAccessReport || n != len(want) {
		t.Fatalf("frame header: %v %d %v, want %v %d", typ, n, err, MsgROAccessReport, len(want))
	}
	if !bytes.Equal(frame[6+headerLen:], want) {
		t.Fatalf("frame payload:\n got %x\nwant %x", frame[6+headerLen:], want)
	}
}

// reportsFromBytes builds one report from each 46 bytes of data, taking
// every field's bits from the data as they come.
func reportsFromBytes(data []byte) []TagReport {
	const size = 12 + 2 + 3*8 + 8
	var out []TagReport
	for ; len(data) >= size; data = data[size:] {
		out = append(out, TagReport{
			EPC:       tagmodel.EPC(data[0:12]),
			AntennaID: binary.BigEndian.Uint16(data[12:14]),
			PhaseRad:  math.Float64frombits(binary.BigEndian.Uint64(data[14:22])),
			RSSdBm:    math.Float64frombits(binary.BigEndian.Uint64(data[22:30])),
			DopplerHz: math.Float64frombits(binary.BigEndian.Uint64(data[30:38])),
			Timestamp: time.Duration(binary.BigEndian.Uint64(data[38:46])),
		})
	}
	return out
}

// sameReport compares two reports field by field, floats by their bits.
func sameReport(a, b TagReport) bool {
	return a.EPC == b.EPC && a.AntennaID == b.AntennaID && a.Timestamp == b.Timestamp &&
		math.Float64bits(a.PhaseRad) == math.Float64bits(b.PhaseRad) &&
		math.Float64bits(a.RSSdBm) == math.Float64bits(b.RSSdBm) &&
		math.Float64bits(a.DopplerHz) == math.Float64bits(b.DopplerHz)
}

// referenceEncodeReports is the report encoder as first written, one
// field at a time at a running offset: the kernels must match it byte
// for byte.
func referenceEncodeReports(reports []TagReport) []byte {
	buf := make([]byte, 2+entryLen*len(reports))
	binary.BigEndian.PutUint16(buf[0:2], uint16(len(reports)))
	off := 2
	for _, rep := range reports {
		copy(buf[off:off+12], rep.EPC[:])
		off += 12
		binary.BigEndian.PutUint16(buf[off:], rep.AntennaID)
		off += 2
		phase := rep.PhaseRad / (2 * math.Pi)
		phase -= math.Floor(phase)
		binary.BigEndian.PutUint16(buf[off:], uint16(phase*65536))
		off += 2
		binary.BigEndian.PutUint16(buf[off:], uint16(int16(clampI16(rep.RSSdBm*100))))
		off += 2
		binary.BigEndian.PutUint16(buf[off:], uint16(int16(clampI16(rep.DopplerHz*100))))
		off += 2
		binary.BigEndian.PutUint64(buf[off:], uint64(rep.Timestamp/time.Microsecond))
		off += 8
	}
	return buf
}

// referenceDecodeReports is the report decoder as first written, one
// field at a time into a local report copied into a fresh slice: the
// kernels must match it bit for bit.
func referenceDecodeReports(payload []byte) ([]TagReport, error) {
	if len(payload) < 2 {
		return nil, ErrShortReport
	}
	count := int(binary.BigEndian.Uint16(payload[0:2]))
	if len(payload) != 2+count*entryLen {
		return nil, ErrShortReport
	}
	out := make([]TagReport, count)
	off := 2
	for i := range out {
		var rep TagReport
		copy(rep.EPC[:], payload[off:off+12])
		off += 12
		rep.AntennaID = binary.BigEndian.Uint16(payload[off:])
		off += 2
		rep.PhaseRad = float64(binary.BigEndian.Uint16(payload[off:])) / 65536 * 2 * math.Pi
		off += 2
		rep.RSSdBm = float64(int16(binary.BigEndian.Uint16(payload[off:]))) / 100
		off += 2
		rep.DopplerHz = float64(int16(binary.BigEndian.Uint16(payload[off:]))) / 100
		off += 2
		rep.Timestamp = time.Duration(binary.BigEndian.Uint64(payload[off:])) * time.Microsecond
		off += 8
		out[i] = rep
	}
	return out, nil
}
