// Package llrp implements a compact binary reader protocol in the
// spirit of EPCglobal's Low Level Reader Protocol (LLRP) [12], which
// the paper's software stack uses to talk to the Impinj reader
// (§IV-A). A backend connects to the reader daemon over TCP, starts a
// reader operation (ROSpec), and receives a stream of tag-report
// batches carrying EPC, phase, RSS, Doppler, and a microsecond
// timestamp — the exact record the recognition pipeline consumes.
//
// Wire format (all big-endian):
//
//	frame  := magic(u16) version(u8) type(u8) length(u32) payload
//	report := count(u16) entry*
//	entry  := epc(12B) antenna(u16) phase(u16) rssi(i16) doppler(i16) ts(u64)
//
// Phase is encoded as rad/2π × 65536 (the native resolution of Impinj
// readers is far coarser); RSSI and Doppler are centi-units; the
// timestamp is microseconds since reader start.
package llrp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"rfipad/internal/tagmodel"
)

// Protocol constants.
const (
	Magic   uint16 = 0xA55A
	Version uint8  = 1

	// headerLen is the fixed frame header size in bytes.
	headerLen = 8
	// entryLen is the wire size of one tag report entry.
	entryLen = 12 + 2 + 2 + 2 + 2 + 8
	// MaxPayload caps a frame's payload to keep a malicious or corrupt
	// peer from forcing huge allocations.
	MaxPayload = 1 << 20
)

// MsgType identifies a frame's meaning.
type MsgType uint8

// Message types.
const (
	// MsgStartROSpec asks the reader to begin inventorying and
	// streaming reports.
	MsgStartROSpec MsgType = iota + 1
	// MsgStopROSpec asks the reader to stop.
	MsgStopROSpec
	// MsgROAccessReport carries a batch of tag reports.
	MsgROAccessReport
	// MsgKeepalive is a liveness probe (either direction).
	MsgKeepalive
	// MsgReaderEvent carries a UTF-8 status string from the reader.
	MsgReaderEvent
	// MsgError carries a UTF-8 error string.
	MsgError
)

// Reader event payloads. MsgReaderEvent frames carry one of these
// UTF-8 strings (possibly followed by ": detail" text); only the
// terminal ones end the report stream — everything else is status
// chatter a client must tolerate mid-stream.
const (
	// EventReady is sent once per connection before any other frame.
	EventReady = "reader ready"
	// EventComplete reports that the ROSpec's source is exhausted — a
	// clean end of stream.
	EventComplete = "rospec complete"
	// EventStopped acknowledges a StopROSpec.
	EventStopped = "rospec stopped"
	// EventNoROSpec answers a StopROSpec with no ROSpec running.
	EventNoROSpec = "no rospec"
)

// EventKind classifies a MsgReaderEvent payload.
type EventKind int

// Event kinds.
const (
	// EventInfo is informational chatter; the stream continues.
	EventInfo EventKind = iota
	// EventStreamEnd is a terminal event: the ROSpec completed or was
	// stopped and no further reports will follow.
	EventStreamEnd
	// EventHandshake is the per-connection ready banner.
	EventHandshake
)

// ClassifyEvent maps a MsgReaderEvent payload onto its kind. Unknown
// payloads classify as EventInfo so future reader chatter never kills
// a stream.
func ClassifyEvent(payload []byte) EventKind {
	switch string(payload) {
	case EventComplete, EventStopped:
		return EventStreamEnd
	case EventReady:
		return EventHandshake
	default:
		return EventInfo
	}
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgStartROSpec:
		return "StartROSpec"
	case MsgStopROSpec:
		return "StopROSpec"
	case MsgROAccessReport:
		return "ROAccessReport"
	case MsgKeepalive:
		return "Keepalive"
	case MsgReaderEvent:
		return "ReaderEvent"
	case MsgError:
		return "Error"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is one decoded frame.
type Message struct {
	Type    MsgType
	Payload []byte
}

// Protocol errors.
var (
	ErrBadMagic    = errors.New("llrp: bad magic")
	ErrBadVersion  = errors.New("llrp: unsupported version")
	ErrOversized   = errors.New("llrp: oversized payload")
	ErrShortReport = errors.New("llrp: truncated tag report")
)

// WriteMessage frames and writes a message.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > MaxPayload {
		return ErrOversized
	}
	if _, err := w.Write(appendHeader(make([]byte, 0, headerLen), m.Type, len(m.Payload))); err != nil {
		return fmt.Errorf("llrp: write header: %w", err)
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return fmt.Errorf("llrp: write payload: %w", err)
		}
	}
	return nil
}

// ReadMessage reads and validates one frame into a fresh header and
// payload. It reads no byte past the frame, so callers can share r.
// Client and Session read their connection's frames into one reused
// buffer instead.
func ReadMessage(r io.Reader) (Message, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, err
	}
	t, n, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, fmt.Errorf("llrp: read payload: %w", err)
	}
	return Message{Type: t, Payload: payload}, nil
}

// appendHeader appends the header of a frame of type t carrying an
// n-byte payload.
func appendHeader(dst []byte, t MsgType, n int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, uint8(t))
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// parseHeader validates a frame header and returns the frame's type and
// payload length.
func parseHeader(hdr []byte) (MsgType, int, error) {
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, ErrBadVersion
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length > MaxPayload {
		return 0, 0, ErrOversized
	}
	return MsgType(hdr[3]), int(length), nil
}

// frameBufSize is the initial size of a connection's frame buffer:
// room for several frames of a few hundred reports, so one Read can
// take in more than one.
const frameBufSize = 32 << 10

// frameReader reads one connection's frames into one buffer it owns.
// A frame's payload aliases the buffer and stays valid until the next
// read, which may overwrite or move it. A header or payload that does
// not fit replaces the buffer with one twice its size.
type frameReader struct {
	rd  io.Reader
	buf []byte
	// r and w bound the unread bytes, buf[r:w].
	r, w int
	// err is a read error that arrived with data; it is returned once
	// the buffered bytes run short, as bufio.Reader does.
	err error
}

// next reads one frame. For the same bytes it returns the message and
// the error ReadMessage returns.
func (f *frameReader) next() (Message, error) {
	if err := f.fill(headerLen); err != nil {
		return Message{}, err
	}
	t, n, err := parseHeader(f.buf[f.r : f.r+headerLen])
	if err != nil {
		return Message{}, err
	}
	f.r += headerLen
	if err := f.fill(n); err != nil {
		return Message{}, fmt.Errorf("llrp: read payload: %w", err)
	}
	payload := f.buf[f.r : f.r+n : f.r+n]
	f.r += n
	return Message{Type: t, Payload: payload}, nil
}

// fill buffers at least n unread bytes, moving the unread bytes to the
// front (into a larger buffer when n does not fit) when the buffer's
// tail is too short. Like io.ReadFull, it reports io.EOF when the
// stream ends before the first of them and io.ErrUnexpectedEOF when it
// ends part way.
func (f *frameReader) fill(n int) error {
	if f.w-f.r >= n {
		return nil
	}
	if f.r+n > len(f.buf) {
		buf := f.buf
		if n > len(buf) {
			buf = make([]byte, 2*n)
		}
		f.w = copy(buf, f.buf[f.r:f.w])
		f.r = 0
		f.buf = buf
	}
	for f.w-f.r < n {
		if err := f.err; err != nil {
			f.err = nil
			if err == io.EOF && f.w > f.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		var m int
		m, f.err = f.rd.Read(f.buf[f.w:])
		f.w += m
	}
	return nil
}

// frameWriter writes one connection's frames from one buffer it owns:
// each frame is built there, header first, and leaves in one Write, so
// sending a frame allocates nothing once the buffer has grown.
type frameWriter struct {
	conn net.Conn
	// timeout, when positive, is set as the write deadline before each
	// frame.
	timeout time.Duration
	buf     []byte
}

// send writes one frame.
func (f *frameWriter) send(t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrOversized
	}
	f.buf = append(appendHeader(f.buf[:0], t, len(payload)), payload...)
	return f.flush()
}

// sendReports writes a batch as MsgROAccessReport frames: one frame,
// or, for a batch whose payload would exceed MaxPayload, as many
// frames of at most maxFrameReports reports as it takes, in order.
func (f *frameWriter) sendReports(batch []TagReport) error {
	for {
		n := min(len(batch), maxFrameReports)
		f.buf = appendHeader(f.buf[:0], MsgROAccessReport, reportsLen(n))
		f.buf = appendReports(f.buf, batch[:n])
		if err := f.flush(); err != nil {
			return err
		}
		if batch = batch[n:]; len(batch) == 0 {
			return nil
		}
	}
}

// flush writes the buffered frame.
func (f *frameWriter) flush() error {
	if f.timeout > 0 {
		f.conn.SetWriteDeadline(time.Now().Add(f.timeout))
	}
	if _, err := f.conn.Write(f.buf); err != nil {
		return fmt.Errorf("llrp: write: %w", err)
	}
	return nil
}

// HeaderLen is the fixed frame header size in bytes, exported for
// frame-aware tooling (fault injectors, sniffers).
const HeaderLen = headerLen

// FrameSize maps a full frame header onto the total frame length
// (header + payload); it returns -1 when the header is not a valid
// frame start. Suitable as a faultnet framer.
func FrameSize(hdr []byte) int {
	if len(hdr) < headerLen || binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return -1
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length > MaxPayload {
		return -1
	}
	return headerLen + int(length)
}

// NoResume marks a StartROSpec with no resume point (stream from the
// beginning).
const NoResume = time.Duration(-1)

// EncodeResume builds a StartROSpec payload carrying the last-seen
// report timestamp, asking the reader to replay from (shortly before)
// that offset instead of from zero. NoResume encodes as an empty
// payload — the original stream-from-zero request.
func EncodeResume(lastSeen time.Duration) []byte {
	if lastSeen < 0 {
		return nil
	}
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(lastSeen/time.Microsecond))
	return buf
}

// DecodeResume parses a StartROSpec payload. An empty payload means no
// resume point (NoResume, ok=true); a malformed payload returns
// ok=false.
func DecodeResume(payload []byte) (lastSeen time.Duration, ok bool) {
	switch len(payload) {
	case 0:
		return NoResume, true
	case 8:
		return time.Duration(binary.BigEndian.Uint64(payload)) * time.Microsecond, true
	default:
		return 0, false
	}
}

// TagReport is one tag observation on the wire.
type TagReport struct {
	EPC       tagmodel.EPC
	AntennaID uint16
	// PhaseRad is the reported phase in [0, 2π).
	PhaseRad float64
	// RSSdBm is the reported signal strength.
	RSSdBm float64
	// DopplerHz is the reported Doppler shift.
	DopplerHz float64
	// Timestamp is the reader-relative time of the read.
	Timestamp time.Duration
}

// maxFrameReports is the most reports one MsgROAccessReport payload
// carries within MaxPayload.
const maxFrameReports = (MaxPayload - 2) / entryLen

// reportsLen is the payload length of a batch of n reports.
func reportsLen(n int) int { return 2 + entryLen*n }

// EncodeReports builds a MsgROAccessReport payload. A batch of more
// than (MaxPayload−2)/28 = 37 449 reports would exceed MaxPayload and is
// rejected with ErrOversized; the reader daemon splits such a batch
// across frames.
func EncodeReports(reports []TagReport) ([]byte, error) {
	if len(reports) > maxFrameReports {
		return nil, fmt.Errorf("%w: %d reports in one frame, at most %d fit",
			ErrOversized, len(reports), maxFrameReports)
	}
	return appendReports(make([]byte, 0, reportsLen(len(reports))), reports), nil
}

// appendReports appends the MsgROAccessReport payload of at most
// maxFrameReports reports to dst, growing it once.
func appendReports(dst []byte, reports []TagReport) []byte {
	off := len(dst)
	dst = slices.Grow(dst, reportsLen(len(reports)))[:off+reportsLen(len(reports))]
	binary.BigEndian.PutUint16(dst[off:], uint16(len(reports)))
	entries := dst[off+2:]
	for i := range reports {
		rep := &reports[i]
		e := entries[i*entryLen:][:entryLen:entryLen]
		copy(e[0:12], rep.EPC[:])
		binary.BigEndian.PutUint16(e[12:14], rep.AntennaID)
		phase := rep.PhaseRad / (2 * math.Pi)
		phase -= math.Floor(phase)
		binary.BigEndian.PutUint16(e[14:16], uint16(phase*65536))
		binary.BigEndian.PutUint16(e[16:18], uint16(int16(clampI16(rep.RSSdBm*100))))
		binary.BigEndian.PutUint16(e[18:20], uint16(int16(clampI16(rep.DopplerHz*100))))
		binary.BigEndian.PutUint64(e[20:28], uint64(rep.Timestamp/time.Microsecond))
	}
	return dst
}

// DecodeReports parses a MsgROAccessReport payload.
func DecodeReports(payload []byte) ([]TagReport, error) {
	return DecodeReportsInto(nil, payload)
}

// DecodeReportsInto is DecodeReports appending into dst's backing array
// when its capacity allows, so a caller that recycles one scratch slice
// across frames decodes without allocating. dst's existing elements are
// overwritten; pass dst[:0] semantics via any slice whose length is
// ignored. The returned slice aliases dst's array when it fit.
func DecodeReportsInto(dst []TagReport, payload []byte) ([]TagReport, error) {
	if len(payload) < 2 {
		return nil, ErrShortReport
	}
	count := int(binary.BigEndian.Uint16(payload[0:2]))
	if len(payload) != reportsLen(count) {
		return nil, ErrShortReport
	}
	var out []TagReport
	if cap(dst) >= count {
		out = dst[:count]
	} else {
		out = make([]TagReport, count)
	}
	entries := payload[2:]
	for i := range out {
		e := entries[i*entryLen:][:entryLen:entryLen]
		rep := &out[i]
		rep.EPC = tagmodel.EPC(e[0:12])
		rep.AntennaID = binary.BigEndian.Uint16(e[12:14])
		rep.PhaseRad = float64(binary.BigEndian.Uint16(e[14:16])) / 65536 * 2 * math.Pi
		rep.RSSdBm = float64(int16(binary.BigEndian.Uint16(e[16:18]))) / 100
		rep.DopplerHz = float64(int16(binary.BigEndian.Uint16(e[18:20]))) / 100
		rep.Timestamp = time.Duration(binary.BigEndian.Uint64(e[20:28])) * time.Microsecond
	}
	return out, nil
}

func clampI16(v float64) float64 {
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	if v < math.MinInt16 {
		return math.MinInt16
	}
	return math.Round(v)
}
