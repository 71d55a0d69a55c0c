package tagmodel

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"rfipad/internal/geo"
	"rfipad/internal/rf"
)

// EPC is a 96-bit Electronic Product Code, the identifier a C1G2 tag
// reports during inventory.
type EPC [12]byte

// String renders the EPC as uppercase hex, the conventional notation.
func (e EPC) String() string { return fmt.Sprintf("%X", e[:]) }

// MakeEPC builds a deterministic EPC from an array index, mirroring how
// a lab numbers its tags.
func MakeEPC(index int) EPC {
	var e EPC
	// EPC header for SGTIN-96 followed by the index in the serial part.
	e[0] = 0x30
	e[1] = 0x08
	for i := 0; i < 4; i++ {
		e[11-i] = byte(index >> (8 * i))
	}
	return e
}

// SerialOf extracts the serial an EPC was built with by MakeEPC. A
// backend that knows the lab's numbering recovers tag array indices
// this way.
func SerialOf(e EPC) int { return int(binary.BigEndian.Uint32(e[8:12])) }

// Tag is one deployed passive tag.
type Tag struct {
	// EPC identifies the tag on the air interface.
	EPC EPC
	// Index is the tag's ordinal in its array (row-major), or −1 for a
	// free-standing tag.
	Index int
	// Row, Col are the grid coordinates in the array (0-based), or −1.
	Row, Col int
	// Type is the commercial design.
	Type TagType
	// Pos is the antenna centre in world coordinates.
	Pos geo.Vec3
	// Facing is the antenna orientation in the plane.
	Facing Orientation
	// ThetaTag is this tag's hardware phase offset (tag diversity,
	// Eq. 6/7): fixed at manufacture, uniform over [0, 2π).
	ThetaTag float64
	// SensitivityDBm is the per-instance power-up threshold (the type's
	// nominal value plus manufacturing spread).
	SensitivityDBm float64
	// CouplingLossDB is the one-way shadowing loss from every other tag
	// in the deployment, precomputed by the array builder.
	CouplingLossDB float64
}

// RFPoint converts the tag into the channel model's input form.
func (t *Tag) RFPoint() rf.TagPoint {
	p := t.Type.Props()
	return rf.TagPoint{
		Pos:               t.Pos,
		GainDBi:           p.GainDBi,
		ThetaTag:          t.ThetaTag,
		ExtraLossDB:       t.CouplingLossDB,
		BackscatterLossDB: p.BackscatterLossDB,
		SensitivityDBm:    t.SensitivityDBm,
	}
}

// Array is a grid of tags forming an RFIPad sensing plate.
type Array struct {
	// Rows, Cols are the grid dimensions (the prototype is 5×5).
	Rows, Cols int
	// Spacing is the centre-to-centre tag pitch in metres. The paper
	// recommends a 6 cm *gap* between adjacent tags (§IV-B1); with the
	// 4.4 cm tag size that is a 10.4 cm pitch, consistent with the
	// 46 cm plane length of §IV-B3 (5·4.4 + 4·6 cm).
	Spacing float64
	// Origin is the world position of tag (0,0); the grid extends along
	// +x (columns) and +y (rows) in the z=Origin.Z plane.
	Origin geo.Vec3
	// Tags holds the tags in row-major order.
	Tags []*Tag
}

// ArrayConfig configures NewArray.
type ArrayConfig struct {
	// Rows, Cols default to 5×5.
	Rows, Cols int
	// Spacing defaults to 6 cm.
	Spacing float64
	// Origin places tag (0,0); the plane is z = Origin.Z.
	Origin geo.Vec3
	// Type defaults to TagB, the paper's recommendation.
	Type TagType
	// AlternateFacing flips adjacent tags to opposite orientations, the
	// §IV-B1 mitigation. Defaults to true via NewArray.
	AlternateFacing bool
	// SensitivitySpreadDB is the std-dev of per-tag power-up threshold
	// variation (manufacturing spread).
	SensitivitySpreadDB float64
}

// DefaultSpacing is the centre-to-centre pitch of the recommended
// deployment: 4.4 cm tags with 6 cm gaps.
const DefaultSpacing = 0.104

// DefaultArrayConfig returns the prototype deployment: a 5×5 grid of
// TagB at the default pitch with alternating facing, centred on the
// origin of the x/y plane.
func DefaultArrayConfig() ArrayConfig {
	half := 2 * DefaultSpacing
	return ArrayConfig{
		Rows:                5,
		Cols:                5,
		Spacing:             DefaultSpacing,
		Origin:              geo.V(-half, -half, 0),
		Type:                TagB,
		AlternateFacing:     true,
		SensitivitySpreadDB: 0.5,
	}
}

// NewArray builds a tag array. rng seeds the per-tag manufacturing
// diversity (θ_tag, sensitivity spread) and must not be nil.
func NewArray(cfg ArrayConfig, rng *rand.Rand) *Array {
	if cfg.Rows <= 0 {
		cfg.Rows = 5
	}
	if cfg.Cols <= 0 {
		cfg.Cols = 5
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = DefaultSpacing
	}
	if cfg.Type == 0 {
		cfg.Type = TagB
	}
	a := &Array{
		Rows:    cfg.Rows,
		Cols:    cfg.Cols,
		Spacing: cfg.Spacing,
		Origin:  cfg.Origin,
	}
	props := cfg.Type.Props()
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			idx := r*cfg.Cols + c
			facing := FacingPositive
			if cfg.AlternateFacing && (r+c)%2 == 1 {
				facing = FacingNegative
			}
			t := &Tag{
				EPC:            MakeEPC(idx + 1),
				Index:          idx,
				Row:            r,
				Col:            c,
				Type:           cfg.Type,
				Pos:            cfg.Origin.Add(geo.V(float64(c)*cfg.Spacing, float64(r)*cfg.Spacing, 0)),
				Facing:         facing,
				ThetaTag:       rng.Float64() * 2 * 3.141592653589793,
				SensitivityDBm: props.SensitivityDBm + rng.NormFloat64()*cfg.SensitivitySpreadDB,
			}
			a.Tags = append(a.Tags, t)
		}
	}
	applyMutualCoupling(a.Tags)
	return a
}

// applyMutualCoupling fills each tag's CouplingLossDB with the summed
// shadowing from every other tag (the in-array interference of
// §IV-B2).
func applyMutualCoupling(tags []*Tag) {
	for _, t := range tags {
		t.CouplingLossDB = ArrayShadowLossDB(t.Pos, t.Facing, tags, t)
	}
}

// ArrayShadowLossDB returns the total one-way shadowing loss (dB) that
// the given tags inflict on a victim antenna at pos with the given
// facing. exclude (may be nil) is skipped — pass the victim itself when
// it is part of the array.
func ArrayShadowLossDB(pos geo.Vec3, facing Orientation, tags []*Tag, exclude *Tag) float64 {
	var loss float64
	for _, other := range tags {
		if other == exclude {
			continue
		}
		d := pos.Dist(other.Pos)
		loss += PairCouplingDB(other.Type, d, other.Facing == facing)
	}
	return loss
}

// TagAt returns the tag at grid position (row, col), or nil when out of
// range.
func (a *Array) TagAt(row, col int) *Tag {
	if row < 0 || row >= a.Rows || col < 0 || col >= a.Cols {
		return nil
	}
	return a.Tags[row*a.Cols+col]
}

// ByEPC returns the tag with the given EPC, or nil.
func (a *Array) ByEPC(e EPC) *Tag {
	for _, t := range a.Tags {
		if t.EPC == e {
			return t
		}
	}
	return nil
}

// Center returns the world position of the array's geometric centre.
func (a *Array) Center() geo.Vec3 {
	dx := float64(a.Cols-1) * a.Spacing / 2
	dy := float64(a.Rows-1) * a.Spacing / 2
	return a.Origin.Add(geo.V(dx, dy, 0))
}

// PlaneLength returns the physical side length of the deployed plane:
// the grid pitch span plus half a tag on each edge (the §IV-B3
// calculation that yields 46 cm for the 5×5 prototype with 4.4 cm tags
// at 6 cm gaps).
func (a *Array) PlaneLength() float64 {
	span := float64(max(a.Rows, a.Cols)-1) * a.Spacing
	size := TagB.Props().SizeM
	if len(a.Tags) > 0 {
		size = a.Tags[0].Type.Props().SizeM
	}
	return span + size
}

// GridPos returns the world position of grid coordinates (row, col)
// even for fractional coordinates — used to aim hand trajectories.
func (a *Array) GridPos(row, col float64) geo.Vec3 {
	return a.Origin.Add(geo.V(col*a.Spacing, row*a.Spacing, 0))
}
