// Package supervise is the live stack's durable checkpoint store: it
// persists each stream's calibration so a restarted daemon or a
// migrated stream skips the calibration prelude. It depends only on
// the standard library and internal/core, so the engine, the cluster
// and the commands can all use it without import cycles.
package supervise

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rfipad/internal/core"
)

// Checkpoint is one stream's durable recovery state: everything a
// restarted daemon needs to skip the static calibration prelude and
// resume recognition at a frame boundary. The recognizer's in-flight
// stroke state is deliberately not captured — a stroke cut in half by
// a crash is unrecoverable anyway — so a restore may lose the letter
// being written at the instant of death, never the calibration.
type Checkpoint struct {
	// Stream names the stream this state belongs to.
	Stream string `json:"stream"`
	// SavedAt is the wall-clock save time, bounding staleness.
	SavedAt time.Time `json:"saved_at"`
	// StreamTime is the stream's clock (core.Clock): the newest
	// reading time it had taken. A reading its clock dropped or still
	// held does not count. A restored stream's clock resumes here.
	StreamTime time.Duration `json:"stream_time"`
	// FrameCursor is the frame-aligned stream time recognition resumes
	// from after a restore (readings before it are dropped as late):
	// the frame of StreamTime.
	FrameCursor time.Duration `json:"frame_cursor"`
	// TraceID carries the stream's trace identity (hex, from
	// internal/obs/trace) across the checkpoint boundary — both the
	// durable store and the cluster transfer frame — so a migrated or
	// restarted stream's trace is stitched rather than severed. Empty
	// when the stream was unsampled; older checkpoints simply lack the
	// field, which decodes to the same thing.
	TraceID string `json:"trace_id,omitempty"`
	// Epoch is the stream's ownership epoch at save time: the fencing
	// token the cluster coordinator mints on every (re)assignment.
	// Store.Save rejects writes whose epoch is older than the stored
	// one (ErrFenced), so a partitioned former owner can never
	// overwrite its successor's state. Zero for standalone daemons and
	// legacy (version 1) checkpoints, where every save carries the same
	// epoch and the fence never rejects.
	Epoch uint64 `json:"epoch,omitempty"`
	// Calibration is the per-tag static statistics (mean phase,
	// deviation bias, noise rate, dead set).
	Calibration core.CalibrationSnapshot `json:"calibration"`
}

// Checkpoint file format: a fixed header followed by a JSON payload.
//
//	offset  size  field
//	0       4     magic "RFCP"
//	4       2     version (big endian)
//	6       4     payload length (big endian)
//	10      4     CRC-32 (IEEE) of the payload
//	14      n     JSON-encoded Checkpoint
//
// The header is validated before the payload is touched, so truncated,
// corrupted, or version-skewed files fail with a typed error instead
// of feeding garbage calibration into the pipeline.
//
// Version 2 added the ownership epoch to the JSON payload. The decoder
// still accepts version 1 files — they carry no epoch and decode with
// Epoch 0, the "never fenced" value — so checkpoints written before an
// upgrade restore cleanly.
const (
	checkpointMagic         = "RFCP"
	checkpointVersion       = 2
	checkpointVersionLegacy = 1
	headerLen               = 14
	// maxPayload bounds decode allocations against corrupted length
	// fields (a calibration for a few thousand tags is well under it).
	maxPayload = 16 << 20
)

// Checkpoint decode/load errors.
var (
	// ErrCorrupt tags undecodable checkpoint bytes (bad magic, length,
	// checksum, or payload).
	ErrCorrupt = errors.New("supervise: corrupt checkpoint")
	// ErrVersion tags a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("supervise: checkpoint version mismatch")
	// ErrStale tags a checkpoint older than the caller's staleness
	// bound.
	ErrStale = errors.New("supervise: checkpoint stale")
	// ErrNoCheckpoint is returned when the store has no file for the
	// stream.
	ErrNoCheckpoint = errors.New("supervise: no checkpoint")
	// ErrFenced tags a checkpoint write rejected by the ownership
	// fence: its epoch is older than the stored one, meaning the writer
	// lost ownership of the stream between reading its state and saving
	// it. The stored checkpoint is left untouched.
	ErrFenced = errors.New("supervise: checkpoint write fenced by newer epoch")
)

// EncodeCheckpoint serializes cp into the versioned, checksummed file
// format.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("supervise: encode checkpoint: %w", err)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, checkpointMagic)
	binary.BigEndian.PutUint16(buf[4:], checkpointVersion)
	binary.BigEndian.PutUint32(buf[6:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[10:], crc32.ChecksumIEEE(payload))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// DecodeCheckpoint parses and validates checkpoint bytes. It returns
// ErrCorrupt or ErrVersion (wrapped) on any malformed input and never
// panics — the contract the fuzz target enforces.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	if len(data) < headerLen {
		return cp, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(data), headerLen)
	}
	if string(data[:4]) != checkpointMagic {
		return cp, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != checkpointVersion && v != checkpointVersionLegacy {
		return cp, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, checkpointVersion)
	}
	n := binary.BigEndian.Uint32(data[6:])
	if n > maxPayload || int(n) != len(data)-headerLen {
		return cp, fmt.Errorf("%w: payload length %d does not match %d trailing bytes",
			ErrCorrupt, n, len(data)-headerLen)
	}
	payload := data[headerLen:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[10:]) {
		return cp, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, &cp); err != nil {
		return cp, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return cp, nil
}

// WriteCheckpoint frames cp onto a stream transport: a 4-byte
// big-endian length prefix followed by the versioned, checksummed
// EncodeCheckpoint bytes. This is the wire format of a cluster
// checkpoint handoff — the same integrity envelope the on-disk store
// uses, so a transfer corrupted in flight fails the receiver's CRC
// instead of feeding garbage calibration into a recognizer. The frame
// goes out in one Write so byte-level fault injectors see a single
// unit.
func WriteCheckpoint(w io.Writer, cp Checkpoint) error {
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	buf := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(buf, uint32(len(data)))
	copy(buf[4:], data)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("supervise: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint reads one length-prefixed checkpoint frame written by
// WriteCheckpoint and validates it. The length field is bounded before
// any allocation, and every malformed input returns a typed error
// (ErrCorrupt/ErrVersion, wrapped) — the receiving node must survive
// whatever a faulty link delivers.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Checkpoint{}, fmt.Errorf("supervise: read checkpoint: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < headerLen || n > maxPayload+headerLen {
		return Checkpoint{}, fmt.Errorf("%w: transfer frame length %d", ErrCorrupt, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return Checkpoint{}, fmt.Errorf("supervise: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// Store persists checkpoints as one file per stream in a directory.
// Saves are atomic (write to a temp file, fsync, rename, fsync the
// directory), so a crash mid-save leaves the previous checkpoint
// intact, never a torn one, and a crash just after a save keeps the
// committed one. Save is also a fenced compare-and-swap on the
// ownership epoch: a write carrying an epoch older than the stored
// checkpoint's returns ErrFenced, which is what stops a partitioned
// former owner from clobbering its successor's state.
type Store struct {
	dir string
	// mu serializes the read-compare-rename of Save so concurrent
	// writers (e.g. a demoting owner and its adopter sharing a store)
	// cannot interleave between the fence check and the rename.
	mu sync.Mutex
	// Now overrides the staleness clock (tests; nil = time.Now).
	Now func() time.Time
	// OnFenced, when set, observes every write the epoch fence rejects
	// (the cluster wires it to a counter). Set it before the store sees
	// concurrent saves; it is called with Save's lock held.
	OnFenced func(stream string, writeEpoch, storedEpoch uint64)
}

// NewStore opens (creating if needed) a checkpoint directory and
// probes it for writability, so an unusable -checkpoint-dir fails at
// startup instead of at the first drain.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("supervise: empty checkpoint dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: checkpoint dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("supervise: checkpoint dir not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the checkpoint file path for a stream (its name
// sanitized to a safe filename). When sanitization had to alter the
// name, a short hash of the original is appended so distinct streams
// that sanitize identically ("a/b" and "a_b") cannot share a file.
func (s *Store) Path(stream string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, stream)
	if safe != stream {
		if safe == "" {
			safe = "_"
		}
		safe = fmt.Sprintf("%s-%08x", safe, crc32.ChecksumIEEE([]byte(stream)))
	}
	return filepath.Join(s.dir, safe+".ckpt")
}

// Save writes cp atomically. The stream name comes from cp.Stream; a
// zero SavedAt is stamped with the store clock. The write is fenced:
// if the stored checkpoint carries a newer ownership epoch than cp,
// Save returns ErrFenced and leaves the stored one in place (equal
// epochs overwrite freely — that is the same owner re-saving). A
// stored file too corrupt to decode never blocks a save; recovery
// state beats a fence that cannot be evaluated.
func (s *Store) Save(cp Checkpoint) error {
	if cp.SavedAt.IsZero() {
		cp.SavedAt = s.now()
	}
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if stored, err := s.Load(cp.Stream); err == nil && cp.Epoch < stored.Epoch {
		if s.OnFenced != nil {
			s.OnFenced(cp.Stream, cp.Epoch, stored.Epoch)
		}
		return fmt.Errorf("%w: write epoch %d, stored epoch %d (stream %q)",
			ErrFenced, cp.Epoch, stored.Epoch, cp.Stream)
	}
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	if err := os.Rename(name, s.Path(cp.Stream)); err != nil {
		os.Remove(name)
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	// A rename is durable only once its directory is synced; without
	// this a crash after Save returns could roll the stream back to the
	// previous checkpoint (or none at all for a first save).
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("supervise: save checkpoint: %w", err)
	}
	return nil
}

// syncDir fsyncs the store directory, committing the most recent
// rename against power loss.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads and validates a stream's checkpoint. Missing files return
// ErrNoCheckpoint; anything undecodable returns ErrCorrupt/ErrVersion.
func (s *Store) Load(stream string) (Checkpoint, error) {
	data, err := os.ReadFile(s.Path(stream))
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, ErrNoCheckpoint
	}
	if err != nil {
		return Checkpoint{}, fmt.Errorf("supervise: load checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// LoadFresh loads a stream's checkpoint and enforces the staleness
// bound: a checkpoint saved more than maxAge ago returns ErrStale
// (maxAge <= 0 disables the bound). Callers fall back to live
// calibration on any error.
func (s *Store) LoadFresh(stream string, maxAge time.Duration) (Checkpoint, error) {
	cp, err := s.Load(stream)
	if err != nil {
		return cp, err
	}
	if maxAge > 0 {
		if age := s.now().Sub(cp.SavedAt); age > maxAge {
			return cp, fmt.Errorf("%w: saved %v ago, bound %v", ErrStale, age.Round(time.Second), maxAge)
		}
	}
	return cp, nil
}

func (s *Store) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}
