// Package rfipad is a Go reproduction of "RFIPad: Enabling
// Cost-efficient and Device-free In-air Handwriting using Passive Tags"
// (Ding et al., IEEE ICDCS 2017).
//
// RFIPad turns an array of passive UHF RFID tags into a contactless
// virtual touch screen: a commodity reader streams per-tag phase and
// RSS while a hand writes in the air above the plate, and the pipeline
// in this package recovers basic motions, their directions, and
// English letters.
//
// The paper's prototype is COTS hardware (Impinj Speedway R420 + Laird
// panel + 25 tags). This package ships a physics-based simulation
// substrate in its place (see DESIGN.md): backscatter link budgets,
// EPC C1G2 inventory timing, tag coupling, hand-motion synthesis, and
// the four lab environments the paper evaluates in. The simulator
// emits the same (EPC, phase, RSS, Doppler, timestamp) tag reports a
// real reader does, the llrp wire protocol in cmd/rfipad-readerd
// carries exactly those reports over TCP, and AppendReports decodes
// them into the columns the hardware-agnostic pipeline takes.
//
// Quick start:
//
//	sim, _ := rfipad.NewSimulator(rfipad.SimulatorConfig{Seed: 1})
//	cal, _ := sim.Calibrate(3 * time.Second)
//	rec := sim.NewRecognizer(cal)
//	reports, _ := sim.PerformMotion(rfipad.M(rfipad.Vertical, rfipad.Forward), 42)
//	var batch rfipad.ReadingBatch
//	rfipad.AppendReports(&batch, reports)
//	for _, ev := range rec.IngestBatch(&batch) { ... }
package rfipad

import (
	"fmt"
	"math/rand"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/epc"
	"rfipad/internal/grammar"
	"rfipad/internal/hand"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/scene"
	"rfipad/internal/sim"
	"rfipad/internal/stroke"
	"rfipad/internal/tagmodel"
)

// Re-exported recognition types. These aliases are the public names of
// the engine's types; the internal packages are implementation detail.
type (
	// TagReport is one tag report as a reader delivers it: EPC,
	// antenna, phase, RSS, Doppler, timestamp.
	TagReport = llrp.TagReport
	// ReadingBatch is the columnar (struct-of-arrays) batch form of a
	// run of readings, which every pipeline entry point takes.
	ReadingBatch = core.ReadingBatch
	// Calibration holds the per-tag statistics for diversity
	// suppression, learned from a static capture.
	Calibration = core.Calibration
	// Pipeline is the offline recognition pipeline.
	Pipeline = core.Pipeline
	// Recognizer is the online (streaming) engine.
	Recognizer = core.Recognizer
	// Event is a streaming recognition output (stroke or letter).
	Event = core.Event
	// MotionResult is one recognized stroke window.
	MotionResult = core.MotionResult
	// Span is a detected stroke interval.
	Span = core.Span
	// Segmenter separates strokes from the continuous phase stream.
	Segmenter = core.Segmenter
	// Grid describes the tag-array geometry.
	Grid = core.Grid
	// Motion is a basic hand motion (shape + direction).
	Motion = stroke.Motion
	// Shape is one of the seven basic stroke shapes.
	Shape = stroke.Shape
	// Direction distinguishes the two drawing directions of a shape.
	Direction = stroke.Direction
	// User is a writer profile for the simulator.
	User = hand.User
	// EPC is a 96-bit tag identifier.
	EPC = tagmodel.EPC
)

// Shape and direction vocabulary (§II-C of the paper).
const (
	Click      = stroke.Click
	Horizontal = stroke.Horizontal
	Vertical   = stroke.Vertical
	SlashUp    = stroke.SlashUp
	SlashDown  = stroke.SlashDown
	ArcLeft    = stroke.ArcLeft
	ArcRight   = stroke.ArcRight

	Forward = stroke.Forward
	Reverse = stroke.Reverse
)

// Event kinds emitted by the Recognizer.
const (
	StrokeDetected = core.StrokeDetected
	LetterDeduced  = core.LetterDeduced
)

// AppendReports decodes tag reports into a batch, resolving each EPC
// to its row-major tag index — the decode rfipad-live runs on the wire.
func AppendReports(dst *ReadingBatch, reports []TagReport) { live.AppendReports(dst, reports) }

// GetBatch returns an empty ReadingBatch from the shared pool; return
// it with PutBatch once consumed.
func GetBatch() *ReadingBatch { return core.GetBatch() }

// PutBatch resets a batch and returns it to the shared pool.
func PutBatch(b *ReadingBatch) { core.PutBatch(b) }

// M builds a Motion.
func M(s Shape, d Direction) Motion { return stroke.M(s, d) }

// AllMotions returns the 13 motions of the paper's evaluation.
func AllMotions() []Motion { return stroke.All() }

// Calibrate computes diversity-suppression statistics from a static
// capture (no hand present). numTags is the array population.
func Calibrate(static *ReadingBatch, numTags int) (*Calibration, error) {
	return core.CalibrateBatch(static, numTags)
}

// NewPipeline builds the offline pipeline for a tag grid.
func NewPipeline(grid Grid, cal *Calibration) *Pipeline {
	return core.NewPipeline(grid, cal)
}

// NewRecognizer builds the streaming engine; seg may be nil for the
// paper's segmentation parameters.
func NewRecognizer(p *Pipeline, seg *Segmenter) *Recognizer {
	return core.NewRecognizer(p, seg)
}

// ComposeLetter deduces a letter from recognized strokes.
func ComposeLetter(obs []core.StrokeObservation) (rune, bool) {
	return core.ComposeLetter(obs)
}

// LetterStrokes returns the canonical stroke decomposition of a letter
// ('A'–'Z') per the tree-structure grammar.
func LetterStrokes(ch rune) ([]grammar.Placed, bool) {
	l, ok := grammar.Lookup(ch)
	if !ok {
		return nil, false
	}
	return l.Strokes, true
}

// Placement selects the reader antenna position.
type Placement string

// Antenna placements (§V-A).
const (
	// NLOS mounts the antenna behind the tag board — the paper's
	// default and best performer.
	NLOS Placement = "nlos"
	// LOS mounts the antenna on the ceiling above the plate.
	LOS Placement = "los"
)

// SimulatorConfig configures a simulated deployment. Zero values take
// the paper's defaults (NLOS, 32 cm, 30 dBm, location #1).
type SimulatorConfig struct {
	// Seed drives every random process; equal seeds reproduce runs
	// exactly.
	Seed int64
	// Placement of the reader antenna.
	Placement Placement
	// Location selects the multipath environment (1–4, Fig. 15).
	Location int
	// TxPowerDBm is the reader transmit power (15–32.5).
	TxPowerDBm float64
	// ReaderDistanceM is the antenna-to-plane distance for NLOS.
	ReaderDistanceM float64
	// AngleDeg tilts the antenna relative to the plate.
	AngleDeg float64
	// Writer is the user profile performing motions; zero value uses
	// the median volunteer.
	Writer User
	// FastMAC selects the §VI low-throughput mitigation: shorter tag
	// packets roughly double the read rate at the cost of link margin.
	FastMAC bool
}

// Simulator is a fully simulated RFIPad deployment: tag array, radio
// channel, EPC Gen2 reader, and a synthetic writer.
type Simulator struct {
	sys    *sim.System
	writer User
	seed   int64
}

// NewSimulator builds a simulated deployment.
func NewSimulator(cfg SimulatorConfig) (*Simulator, error) {
	sc := scene.Config{
		TxPowerDBm:     cfg.TxPowerDBm,
		ReaderDistance: cfg.ReaderDistanceM,
		AngleDeg:       cfg.AngleDeg,
	}
	switch cfg.Placement {
	case "", NLOS:
		sc.Placement = scene.NLOS
	case LOS:
		sc.Placement = scene.LOS
	default:
		return nil, fmt.Errorf("rfipad: unknown placement %q", cfg.Placement)
	}
	if cfg.Location != 0 {
		if cfg.Location < 1 || cfg.Location > 4 {
			return nil, fmt.Errorf("rfipad: location %d out of range 1–4", cfg.Location)
		}
		sc.Location = scene.Location(cfg.Location)
	}
	writer := cfg.Writer
	if writer == (User{}) {
		writer = hand.DefaultUser()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := scene.New(sc, rng)
	var opts []sim.Option
	if cfg.FastMAC {
		opts = append(opts, sim.WithMACConfig(epc.FastConfig()))
	}
	return &Simulator{
		sys:    sim.New(dep, rng, opts...),
		writer: writer,
		seed:   cfg.Seed,
	}, nil
}

// Grid returns the tag-array geometry.
func (s *Simulator) Grid() Grid { return s.sys.Grid }

// Volunteers returns the paper's ten-user panel (§V-B6).
func Volunteers() []User { return hand.Volunteers() }

// DefaultUser returns the median writer profile.
func DefaultUser() User { return hand.DefaultUser() }

// Calibrate performs the deployment-time static capture.
func (s *Simulator) Calibrate(d time.Duration) (*Calibration, error) {
	return s.sys.Calibrate(d)
}

// CollectStatic gathers tag reports with no hand present.
func (s *Simulator) CollectStatic(d time.Duration) []TagReport {
	return s.sys.CollectStatic(d)
}

// NewPipeline builds the offline pipeline for this deployment.
func (s *Simulator) NewPipeline(cal *Calibration) *Pipeline {
	return core.NewPipeline(s.sys.Grid, cal)
}

// NewRecognizer builds a streaming recognizer for this deployment.
func (s *Simulator) NewRecognizer(cal *Calibration) *Recognizer {
	return core.NewRecognizer(s.NewPipeline(cal), nil)
}

// PerformMotion synthesizes the writer performing one motion across
// the plate and returns the reader's report stream (ending with a
// trailing quiet second) plus the script duration. trialSeed varies
// the human execution.
func (s *Simulator) PerformMotion(m Motion, trialSeed int64) ([]TagReport, time.Duration) {
	synth := s.sys.Synthesizer(s.writer, rand.New(rand.NewSource(trialSeed)))
	script := synth.DrawOne(m)
	return s.sys.RunScript(script), script.Duration()
}

// WriteLetter synthesizes the writer drawing a letter stroke by stroke
// and returns the report stream plus the script duration.
func (s *Simulator) WriteLetter(ch rune, trialSeed int64) ([]TagReport, time.Duration, error) {
	specs, err := sim.LetterSpecs(ch)
	if err != nil {
		return nil, 0, err
	}
	synth := s.sys.Synthesizer(s.writer, rand.New(rand.NewSource(trialSeed)))
	script := synth.Write(specs)
	return s.sys.RunScript(script), script.Duration(), nil
}

// WriteWord synthesizes a whole word written letter by letter in one
// continuous session — the succession-of-letters scenario §III-C2
// leaves as future work — and returns the report stream plus the time
// its last letter's script ends. Letter i is WriteLetter(ch,
// trialSeed·100+i), a fresh hand per letter, starting 2 s after the
// previous letter's last report. The streaming Recognizer emits one
// LetterDeduced event per letter.
func (s *Simulator) WriteWord(word string, trialSeed int64) ([]TagReport, time.Duration, error) {
	var out []TagReport
	var start, end time.Duration
	for i, ch := range word {
		reports, d, err := s.WriteLetter(ch, trialSeed*100+int64(i))
		if err != nil {
			return nil, 0, fmt.Errorf("rfipad: word %q: %w", word, err)
		}
		last := start
		for _, r := range reports {
			r.Timestamp += start
			out = append(out, r)
			last = max(last, r.Timestamp)
		}
		end = start + d
		start = last + 2*time.Second
	}
	return out, end, nil
}

// TagEPC returns the EPC of the tag at grid position (row, col), or
// false when out of range.
func (s *Simulator) TagEPC(row, col int) (EPC, bool) {
	t := s.sys.Dep.Array.TagAt(row, col)
	if t == nil {
		return EPC{}, false
	}
	return t.EPC, true
}

// TagIndexByEPC resolves an EPC to the row-major tag index, or -1.
func (s *Simulator) TagIndexByEPC(e EPC) int {
	t := s.sys.Dep.Array.ByEPC(e)
	if t == nil {
		return -1
	}
	return t.Index
}
