// Package grammar implements the tree-structure stroke grammar RFIPad
// uses to compose English letters from recognized strokes (§III-C2,
// Fig. 10, after Agrawal et al.'s PhonePoint Pen). Each letter is a
// sequence of placed motions; letters sharing a motion sequence (the
// paper's D/P, O/S examples) are disambiguated by the positions of
// their strokes, which RFIPad recovers from the tag IDs the hand
// disturbed.
//
// The paper reproduces Fig. 10 only as a low-resolution diagram, so the
// stroke decompositions below are our transcription: they honour every
// structural property the text states — C and I are single-stroke
// (group #1); {D,J,L,O,P,S,T,V,X} use two strokes (group #2);
// {A,B,F,G,H,K,N,Q,R,U,Y,Z} use three (group #3); {E,M,W} use four
// (group #4); and D/P and O/S share stroke sequences that only the
// layout separates.
package grammar

import (
	"cmp"
	"slices"

	"rfipad/internal/stroke"
)

// Placed is one stroke of a letter: the motion and the sub-box of the
// letter's unit square it occupies.
type Placed struct {
	Motion stroke.Motion
	Box    stroke.Rect
}

// Letter is one entry of the grammar.
type Letter struct {
	Char    rune
	Strokes []Placed
}

// Group returns the paper's grouping by stroke count (1–4), used in
// Fig. 23's per-group accuracy breakdown.
func (l Letter) Group() int { return len(l.Strokes) }

func m(s stroke.Shape, d stroke.Direction) stroke.Motion { return stroke.M(s, d) }

// Shorthand for the table below.
var (
	fwd = stroke.Forward
	rev = stroke.Reverse
)

// alphabet is the grammar table. Boxes are in letter coordinates
// (x right, y up, unit square).
var alphabet = []Letter{
	// Group #1 — single stroke.
	{'C', []Placed{{m(stroke.ArcLeft, fwd), stroke.Unit}}},
	{'I', []Placed{{m(stroke.Vertical, fwd), stroke.R(0.35, 0, 0.65, 1)}}},

	// Group #2 — two strokes.
	{'D', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.1, 0, 1, 1)}, // full-height bowl
	}},
	{'J', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0.45, 0.25, 0.9, 1)},
		{m(stroke.ArcLeft, fwd), stroke.R(0, 0, 0.75, 0.5)}, // bottom hook
	}},
	{'L', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0, 1, 0.3)},
	}},
	{'O', []Placed{
		{m(stroke.ArcLeft, fwd), stroke.R(0, 0, 0.75, 1)},  // left half
		{m(stroke.ArcRight, fwd), stroke.R(0.25, 0, 1, 1)}, // right half
	}},
	{'P', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.1, 0.45, 1, 1)}, // upper bowl
	}},
	{'S', []Placed{
		{m(stroke.ArcLeft, fwd), stroke.R(0, 0.45, 1, 1)},  // top curl
		{m(stroke.ArcRight, fwd), stroke.R(0, 0, 1, 0.55)}, // bottom curl
	}},
	{'T', []Placed{
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.7, 1, 1)},
		{m(stroke.Vertical, fwd), stroke.R(0.35, 0, 0.65, 1)},
	}},
	{'V', []Placed{
		{m(stroke.SlashDown, fwd), stroke.R(0, 0, 0.6, 1)},
		{m(stroke.SlashUp, rev), stroke.R(0.4, 0, 1, 1)}, // back up
	}},
	{'X', []Placed{
		{m(stroke.SlashDown, fwd), stroke.Unit},
		{m(stroke.SlashUp, fwd), stroke.Unit}, // both drawn downward
	}},

	// Group #3 — three strokes.
	{'A', []Placed{
		{m(stroke.SlashUp, fwd), stroke.R(0, 0, 0.6, 1)},   // apex → bottom-left
		{m(stroke.SlashDown, fwd), stroke.R(0.4, 0, 1, 1)}, // apex → bottom-right
		{m(stroke.Horizontal, fwd), stroke.R(0.15, 0.3, 0.85, 0.55)},
	}},
	{'B', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.1, 0.45, 1, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.1, 0, 1, 0.55)},
	}},
	{'F', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.7, 1, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.4, 0.85, 0.65)},
	}},
	{'G', []Placed{
		{m(stroke.ArcLeft, fwd), stroke.Unit},
		{m(stroke.Vertical, fwd), stroke.R(0.7, 0, 1, 0.55)},
		{m(stroke.Horizontal, rev), stroke.R(0.4, 0.35, 1, 0.6)}, // bar drawn inward
	}},
	{'H', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.35, 1, 0.65)},
		{m(stroke.Vertical, fwd), stroke.R(0.7, 0, 1, 1)},
	}},
	{'K', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.SlashUp, fwd), stroke.R(0.15, 0.45, 1, 1)},   // upper leg, inward
		{m(stroke.SlashDown, fwd), stroke.R(0.15, 0, 1, 0.55)}, // lower leg, outward
	}},
	{'N', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.SlashDown, fwd), stroke.Unit},
		{m(stroke.Vertical, rev), stroke.R(0.7, 0, 1, 1)}, // right side drawn up
	}},
	{'Q', []Placed{
		{m(stroke.ArcLeft, fwd), stroke.R(0, 0.15, 0.75, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.25, 0.15, 1, 1)},
		{m(stroke.SlashDown, fwd), stroke.R(0.5, 0, 1, 0.45)}, // tail
	}},
	{'R', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.ArcRight, fwd), stroke.R(0.1, 0.45, 1, 1)},
		{m(stroke.SlashDown, fwd), stroke.R(0.2, 0, 1, 0.5)}, // leg
	}},
	{'U', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0.3, 0.3, 1)},
		{m(stroke.ArcLeft, rev), stroke.R(0, 0, 1, 0.55)}, // bottom cup
		{m(stroke.Vertical, rev), stroke.R(0.7, 0.3, 1, 1)},
	}},
	{'Y', []Placed{
		{m(stroke.SlashDown, fwd), stroke.R(0, 0.45, 0.6, 1)}, // top-left → centre
		{m(stroke.SlashUp, fwd), stroke.R(0.4, 0.45, 1, 1)},   // top-right → centre
		{m(stroke.Vertical, fwd), stroke.R(0.35, 0, 0.65, 0.55)},
	}},
	{'Z', []Placed{
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.7, 1, 1)},
		{m(stroke.SlashUp, fwd), stroke.Unit}, // top-right → bottom-left
		{m(stroke.Horizontal, fwd), stroke.R(0, 0, 1, 0.3)},
	}},

	// Group #4 — four strokes.
	{'E', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.3, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.7, 1, 1)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0.4, 0.85, 0.65)},
		{m(stroke.Horizontal, fwd), stroke.R(0, 0, 1, 0.3)},
	}},
	{'M', []Placed{
		{m(stroke.Vertical, fwd), stroke.R(0, 0, 0.25, 1)},
		{m(stroke.SlashDown, fwd), stroke.R(0.1, 0.3, 0.55, 1)}, // peak → middle
		{m(stroke.SlashUp, rev), stroke.R(0.45, 0.3, 0.9, 1)},   // middle → peak
		{m(stroke.Vertical, fwd), stroke.R(0.75, 0, 1, 1)},
	}},
	{'W', []Placed{
		{m(stroke.SlashDown, fwd), stroke.R(0, 0, 0.4, 1)},
		{m(stroke.SlashUp, rev), stroke.R(0.2, 0, 0.6, 1)},
		{m(stroke.SlashDown, fwd), stroke.R(0.4, 0, 0.8, 1)},
		{m(stroke.SlashUp, rev), stroke.R(0.6, 0, 1, 1)},
	}},
}

// The grammar is kept in alphabetical order, so every scan of it visits
// letters in the order its results are reported.
func init() {
	slices.SortFunc(alphabet, func(a, b Letter) int { return cmp.Compare(a.Char, b.Char) })
}

// Alphabet returns the full grammar in alphabetical order (copied).
func Alphabet() []Letter {
	return slices.Clone(alphabet)
}

// Lookup returns the grammar entry for a letter ('A'–'Z'), or false.
func Lookup(ch rune) (Letter, bool) {
	for _, l := range alphabet {
		if l.Char == ch {
			return l, true
		}
	}
	return Letter{}, false
}

// Candidates returns every letter whose stroke sequence matches the
// observed motions exactly, in alphabetical order. Several letters may
// share a sequence (D/P, O/S); Deduce resolves them by layout.
func Candidates(motions []stroke.Motion) []Letter {
	var out []Letter
	for _, l := range alphabet {
		if slices.EqualFunc(l.Strokes, motions, func(p Placed, mo stroke.Motion) bool { return p.Motion == mo }) {
			out = append(out, l)
		}
	}
	return out
}

// Observed is a recognized stroke with its measured layout in letter
// coordinates (normalized to the writing area).
type Observed struct {
	Motion stroke.Motion
	Box    stroke.Rect
	// Center, when set (HasCenter), is the stroke's intensity-weighted
	// centroid — preferred over the box centre for position matching
	// because it is robust to the sensing footprint bleeding past the
	// stroke.
	CenterX, CenterY float64
	HasCenter        bool
}

// positionScore measures how far the observation sits from a canonical
// placement.
func positionScore(o Observed, canon stroke.Rect) float64 {
	cx, cy := o.Box.CenterX(), o.Box.CenterY()
	if o.HasCenter {
		cx, cy = o.CenterX, o.CenterY
	}
	dx := cx - canon.CenterX()
	dy := cy - canon.CenterY()
	return dx*dx + dy*dy
}

// Deduce maps an observed stroke sequence to the best-matching letter.
// Exact-sequence candidates are ranked by layout distance (the paper's
// position-based disambiguation); if no letter matches the sequence
// exactly, ok is false.
func Deduce(obs []Observed) (best rune, ok bool) {
	bestScore := -1.0
	for _, cand := range alphabet {
		if !slices.EqualFunc(cand.Strokes, obs, func(p Placed, o Observed) bool { return p.Motion == o.Motion }) {
			continue
		}
		var score float64
		for i, p := range cand.Strokes {
			score += positionScore(obs[i], p.Box)
		}
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = cand.Char
			ok = true
		}
	}
	return best, ok
}

// DeduceFuzzy extends Deduce for noisy pipelines: when no exact
// sequence matches, it scores every letter with the same stroke count
// by (a) the number of matching motions and (b) layout distance,
// returning the closest. ok is false only when no letter has the given
// stroke count.
func DeduceFuzzy(obs []Observed) (best rune, ok bool) {
	if ch, exact := Deduce(obs); exact {
		return ch, true
	}
	bestScore := -1.0
	for _, cand := range alphabet {
		if len(cand.Strokes) != len(obs) {
			continue
		}
		var score float64
		for i, p := range cand.Strokes {
			if p.Motion.Shape != obs[i].Motion.Shape {
				score += 4 // wrong shape is heavily penalized
			} else if p.Motion.Dir != obs[i].Motion.Dir {
				score += 1
			}
			score += positionScore(obs[i], p.Box)
		}
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = cand.Char
			ok = true
		}
	}
	return best, ok
}

// AmbiguousPairs returns the sets of letters sharing an identical
// motion sequence — the ambiguities the paper resolves by position
// (D/P, O/S).
func AmbiguousPairs() [][]rune {
	var out [][]rune
	grouped := make([]bool, len(alphabet))
	for i, l := range alphabet {
		if grouped[i] {
			continue
		}
		g := []rune{l.Char}
		for j := i + 1; j < len(alphabet); j++ {
			if !grouped[j] && slices.EqualFunc(l.Strokes, alphabet[j].Strokes, func(p, q Placed) bool { return p.Motion == q.Motion }) {
				grouped[j] = true
				g = append(g, alphabet[j].Char)
			}
		}
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}
