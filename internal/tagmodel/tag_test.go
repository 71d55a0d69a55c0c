package tagmodel

import (
	"math"
	"math/rand"
	"testing"

	"rfipad/internal/geo"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newTestArray(t *testing.T) *Array {
	t.Helper()
	return NewArray(DefaultArrayConfig(), rand.New(rand.NewSource(1)))
}

func TestTagTypeProps(t *testing.T) {
	types := []TagType{TagA, TagB, TagC, TagD}
	for _, ty := range types {
		p := ty.Props()
		if p.RCSFactor <= 0 || p.RCSFactor > 1 {
			t.Errorf("%v RCSFactor = %v", ty, p.RCSFactor)
		}
		if p.SizeM <= 0 {
			t.Errorf("%v SizeM = %v", ty, p.SizeM)
		}
		if ty.String() == "" {
			t.Errorf("%v has empty String", ty)
		}
	}
	// TagD has the largest RCS, TagB the smallest (§IV-B2).
	if !(TagD.Props().RCSFactor > TagC.Props().RCSFactor &&
		TagC.Props().RCSFactor > TagA.Props().RCSFactor &&
		TagA.Props().RCSFactor > TagB.Props().RCSFactor) {
		t.Error("RCS ordering should be D > C > A > B")
	}
	// Unknown type falls back to TagB.
	if TagType(99).Props() != TagB.Props() {
		t.Error("unknown type should fall back to TagB")
	}
	if TagType(99).String() == "" || Orientation(9).String() == "" {
		t.Error("fallback Strings empty")
	}
}

func TestMakeEPC(t *testing.T) {
	a, b := MakeEPC(1), MakeEPC(2)
	if a == b {
		t.Error("distinct indices produced equal EPCs")
	}
	if a.String() == "" || len(a.String()) != 24 {
		t.Errorf("EPC string = %q, want 24 hex chars", a.String())
	}
	if MakeEPC(1) != a {
		t.Error("MakeEPC not deterministic")
	}
}

// serialLoop is the byte loop SerialOf replaced, kept as its reference.
func serialLoop(e EPC) int {
	v := 0
	for i := 0; i < 4; i++ {
		v = v<<8 | int(e[8+i])
	}
	return v
}

// TestSerialOfMatchesByteLoop pins SerialOf's one big-endian load to
// the byte loop it replaced: on the EPCs MakeEPC builds for the first
// 65 536 indices, for a stride through the rest of the 32-bit serial
// range and its edges, and on random EPCs. MakeEPC keeps an index's low
// 32 bits, so SerialOf must return those too.
func TestSerialOfMatchesByteLoop(t *testing.T) {
	check := func(e EPC) {
		t.Helper()
		if got, want := SerialOf(e), serialLoop(e); got != want {
			t.Fatalf("SerialOf(%v) = %d, byte loop %d", e, got, want)
		}
	}
	indices := []int{1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, -1}
	for i := 0; i < 1<<16; i++ {
		indices = append(indices, i)
	}
	for i := 1 << 16; i < 1<<32; i += 65521 {
		indices = append(indices, i)
	}
	for _, i := range indices {
		e := MakeEPC(i)
		check(e)
		if got := SerialOf(e); got != int(uint32(i)) {
			t.Fatalf("SerialOf(MakeEPC(%d)) = %d, want %d", i, got, uint32(i))
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10000; i++ {
		var e EPC
		rng.Read(e[:])
		check(e)
	}
}

func TestPairCouplingMatchesFig11(t *testing.T) {
	// Same facing at 3 cm: significant suppression (the shadow effect
	// that can make the target unreadable).
	close := PairCouplingDB(TagD, 0.03, true)
	if close < 8 {
		t.Errorf("3 cm same-facing loss = %v dB, want ≈10", close)
	}
	// Opposite facing mitigates it (§IV-B1 deployment advice).
	opp := PairCouplingDB(TagD, 0.03, false)
	if opp >= close/2 {
		t.Errorf("opposite facing loss = %v dB, want well below %v", opp, close)
	}
	// Beyond the far-field boundary (12 cm) interference is negligible.
	far := PairCouplingDB(TagD, 0.12, true)
	if far > 0.5 {
		t.Errorf("12 cm loss = %v dB, want negligible", far)
	}
	// Monotone decrease with distance.
	prev := math.Inf(1)
	for d := 0.03; d <= 0.15; d += 0.01 {
		l := PairCouplingDB(TagD, d, true)
		if l > prev+1e-12 {
			t.Fatalf("coupling not monotone at %v", d)
		}
		prev = l
	}
	// Distances inside the reference clamp.
	if got := PairCouplingDB(TagD, 0.01, true); got != close {
		t.Errorf("sub-3cm loss should clamp: %v vs %v", got, close)
	}
	// Small-RCS tags interfere less.
	if PairCouplingDB(TagB, 0.03, true) >= PairCouplingDB(TagD, 0.03, true) {
		t.Error("TagB should couple less than TagD")
	}
}

func TestShadowThroughArrayMatchesFig12(t *testing.T) {
	// Fig. 12 setup: reader 50 cm in front of the plane, victim tag
	// directly behind the plane centre, 6 cm centre spacing (the
	// experiment packs tags at 6 cm "lengthways and laterally").
	build := func(ty TagType, rows, cols int) []*Tag {
		rng := rand.New(rand.NewSource(2))
		cfg := ArrayConfig{
			Rows: rows, Cols: cols,
			Spacing:         0.06,
			Origin:          geo.V(-float64(cols-1)*0.03, -float64(rows-1)*0.03, 0),
			Type:            ty,
			AlternateFacing: false,
		}
		return NewArray(cfg, rng).Tags
	}
	reader := geo.V(0, 0, 0.5)
	victim := geo.V(0, 0, -0.03)

	lossD3 := ShadowThroughArrayDB(reader, victim, build(TagD, 5, 3))
	if !almostEq(lossD3, 20, 6) {
		t.Errorf("TagD 5×3 shadow = %v dB, want ≈20 (Fig. 12)", lossD3)
	}
	lossB3 := ShadowThroughArrayDB(reader, victim, build(TagB, 5, 3))
	if !almostEq(lossB3, 2, 1.5) {
		t.Errorf("TagB 5×3 shadow = %v dB, want ≈2 (Fig. 12)", lossB3)
	}
	// More rows in a single column → more shadow (first observation).
	prev := 0.0
	for rows := 1; rows <= 5; rows++ {
		l := ShadowThroughArrayDB(reader, victim, build(TagD, rows, 1))
		if l <= prev {
			t.Fatalf("shadow not increasing with rows: %v at %d rows", l, rows)
		}
		prev = l
	}
	// More columns → more shadow (second observation).
	if ShadowThroughArrayDB(reader, victim, build(TagD, 5, 3)) <=
		ShadowThroughArrayDB(reader, victim, build(TagD, 5, 1)) {
		t.Error("additional columns should add shadow")
	}
	// Tags beside (not between) reader and victim do not shadow.
	aside := build(TagD, 5, 3)
	for _, tag := range aside {
		tag.Pos = tag.Pos.Add(geo.V(0, 0, 2)) // behind the reader
	}
	if got := ShadowThroughArrayDB(reader, victim, aside); got != 0 {
		t.Errorf("tags behind reader shadow = %v, want 0", got)
	}
}

func TestNewArrayLayout(t *testing.T) {
	a := newTestArray(t)
	if len(a.Tags) != 25 {
		t.Fatalf("tags = %d, want 25", len(a.Tags))
	}
	// Row-major indexing and grid coherence.
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			tag := a.TagAt(r, c)
			if tag == nil {
				t.Fatalf("TagAt(%d,%d) nil", r, c)
			}
			if tag.Row != r || tag.Col != c || tag.Index != r*5+c {
				t.Errorf("tag at (%d,%d) has Row=%d Col=%d Index=%d", r, c, tag.Row, tag.Col, tag.Index)
			}
			want := a.GridPos(float64(r), float64(c))
			if tag.Pos.Dist(want) > 1e-12 {
				t.Errorf("tag (%d,%d) at %v, want %v", r, c, tag.Pos, want)
			}
		}
	}
	if a.TagAt(-1, 0) != nil || a.TagAt(0, 5) != nil {
		t.Error("out-of-range TagAt should be nil")
	}
	// Unique EPCs, findable via ByEPC.
	seen := map[EPC]bool{}
	for _, tag := range a.Tags {
		if seen[tag.EPC] {
			t.Fatalf("duplicate EPC %v", tag.EPC)
		}
		seen[tag.EPC] = true
		if a.ByEPC(tag.EPC) != tag {
			t.Fatalf("ByEPC(%v) did not return the tag", tag.EPC)
		}
	}
	if a.ByEPC(MakeEPC(999)) != nil {
		t.Error("ByEPC of unknown EPC should be nil")
	}
	// Centre is the grid midpoint: origin + 2×pitch in x and y.
	want := a.Origin.Add(geo.V(2*a.Spacing, 2*a.Spacing, 0))
	if a.Center().Dist(want) > 1e-12 {
		t.Errorf("Center = %v, want %v", a.Center(), want)
	}
	// Plane length ≈ 46 cm (§IV-B3).
	if got := a.PlaneLength(); !almostEq(got, 0.46, 0.001) {
		t.Errorf("PlaneLength = %v, want 0.46", got)
	}
}

func TestNewArrayDiversity(t *testing.T) {
	a := newTestArray(t)
	// θ_tag spread across [0, 2π): at least ten distinct values and a
	// wide range (tag diversity, Fig. 4).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tag := range a.Tags {
		if tag.ThetaTag < 0 || tag.ThetaTag >= 2*math.Pi {
			t.Fatalf("ThetaTag out of range: %v", tag.ThetaTag)
		}
		lo = math.Min(lo, tag.ThetaTag)
		hi = math.Max(hi, tag.ThetaTag)
	}
	if hi-lo < math.Pi {
		t.Errorf("ThetaTag spread = %v, want > π", hi-lo)
	}
	// Alternating facing is a checkerboard.
	for _, tag := range a.Tags {
		want := FacingPositive
		if (tag.Row+tag.Col)%2 == 1 {
			want = FacingNegative
		}
		if tag.Facing != want {
			t.Errorf("tag (%d,%d) facing %v, want %v", tag.Row, tag.Col, tag.Facing, want)
		}
	}
	// Same seed → identical array.
	b := NewArray(DefaultArrayConfig(), rand.New(rand.NewSource(1)))
	for i := range a.Tags {
		if a.Tags[i].ThetaTag != b.Tags[i].ThetaTag {
			t.Fatal("arrays from equal seeds differ")
		}
	}
}

func TestNewArrayDefaultsApplied(t *testing.T) {
	a := NewArray(ArrayConfig{}, rand.New(rand.NewSource(3)))
	if a.Rows != 5 || a.Cols != 5 || a.Spacing != DefaultSpacing {
		t.Errorf("defaults not applied: %d×%d at %v", a.Rows, a.Cols, a.Spacing)
	}
	if a.Tags[0].Type != TagB {
		t.Errorf("default type = %v, want TagB", a.Tags[0].Type)
	}
}

func TestAlternatingFacingReducesCoupling(t *testing.T) {
	// The §IV-B1 deployment advice: alternating orientation lowers the
	// total in-array coupling loss versus uniform facing, at a tight
	// 6 cm centre pitch where the near field matters.
	cfg := DefaultArrayConfig()
	cfg.Spacing = 0.06
	cfg.AlternateFacing = true
	alt := NewArray(cfg, rand.New(rand.NewSource(4)))
	cfg.AlternateFacing = false
	same := NewArray(cfg, rand.New(rand.NewSource(4)))
	var altSum, sameSum float64
	for i := range alt.Tags {
		altSum += alt.Tags[i].CouplingLossDB
		sameSum += same.Tags[i].CouplingLossDB
	}
	if altSum >= sameSum {
		t.Errorf("alternating coupling %v >= uniform %v", altSum, sameSum)
	}
}

func TestRFPointReflectsTagState(t *testing.T) {
	a := newTestArray(t)
	tag := a.TagAt(2, 2)
	p := tag.RFPoint()
	if p.Pos != tag.Pos || p.ThetaTag != tag.ThetaTag {
		t.Error("RFPoint does not mirror tag state")
	}
	props := tag.Type.Props()
	if p.GainDBi != props.GainDBi || p.BackscatterLossDB != props.BackscatterLossDB {
		t.Error("RFPoint does not carry type properties")
	}
	if p.ExtraLossDB != tag.CouplingLossDB {
		t.Error("RFPoint missing coupling loss")
	}
}
