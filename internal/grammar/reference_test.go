package grammar

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rfipad/internal/stroke"
)

// The string-key matcher the grammar used before it compared motion
// sequences directly, kept as the reference the direct comparison must
// reproduce.

func refSeqKey(motions []stroke.Motion) string {
	s := ""
	for _, mo := range motions {
		s += fmt.Sprintf("%d.%d;", mo.Shape, mo.Dir)
	}
	return s
}

func refAlphabet() []Letter {
	out := make([]Letter, len(alphabet))
	copy(out, alphabet)
	sort.Slice(out, func(i, j int) bool { return out[i].Char < out[j].Char })
	return out
}

func refMotions(l Letter) []stroke.Motion {
	ms := make([]stroke.Motion, len(l.Strokes))
	for i, p := range l.Strokes {
		ms[i] = p.Motion
	}
	return ms
}

func refCandidates(motions []stroke.Motion) []Letter {
	key := refSeqKey(motions)
	var out []Letter
	for _, l := range refAlphabet() {
		if refSeqKey(refMotions(l)) == key {
			out = append(out, l)
		}
	}
	return out
}

func refDeduce(obs []Observed) (best rune, ok bool) {
	motions := make([]stroke.Motion, len(obs))
	for i, o := range obs {
		motions[i] = o.Motion
	}
	cands := refCandidates(motions)
	if len(cands) == 0 {
		return 0, false
	}
	bestScore := -1.0
	for _, cand := range cands {
		var score float64
		for i, p := range cand.Strokes {
			score += positionScore(obs[i], p.Box)
		}
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = cand.Char
		}
	}
	return best, true
}

func refDeduceFuzzy(obs []Observed) (best rune, ok bool) {
	if ch, exact := refDeduce(obs); exact {
		return ch, true
	}
	bestScore := -1.0
	for _, cand := range refAlphabet() {
		if len(cand.Strokes) != len(obs) {
			continue
		}
		var score float64
		for i, p := range cand.Strokes {
			if p.Motion.Shape != obs[i].Motion.Shape {
				score += 4
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

func refAmbiguousPairs() [][]rune {
	groups := map[string][]rune{}
	for _, l := range refAlphabet() {
		k := refSeqKey(refMotions(l))
		groups[k] = append(groups[k], l.Char)
	}
	var out [][]rune
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestMatchingMatchesSeqKeyReference compares Candidates, Deduce,
// DeduceFuzzy and AmbiguousPairs with the string-key reference on every
// letter's own sequence, on the D/P and O/S groups laid out as either
// member, on every sequence one direction off a letter's, and on
// sequences no letter has — each observed at its canonical layout, at
// jittered layouts with and without centroids, and infinitely far off,
// where every candidate ties.
func TestMatchingMatchesSeqKeyReference(t *testing.T) {
	if got, want := AmbiguousPairs(), refAmbiguousPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AmbiguousPairs = %q, reference %q", got, want)
	}
	if got, want := Alphabet(), refAlphabet(); !reflect.DeepEqual(got, want) {
		t.Fatal("Alphabet differs from the sorted reference")
	}

	flip := func(d stroke.Direction) stroke.Direction {
		if d == stroke.Forward {
			return stroke.Reverse
		}
		return stroke.Forward
	}
	type seqCase struct {
		name    string
		motions []stroke.Motion
		layout  Letter // whose boxes the observation takes
	}
	var cases []seqCase
	for _, l := range refAlphabet() {
		ms := refMotions(l)
		cases = append(cases, seqCase{string(l.Char), ms, l})
		for k := range ms {
			off := append([]stroke.Motion(nil), ms...)
			off[k].Dir = flip(off[k].Dir)
			cases = append(cases, seqCase{fmt.Sprintf("%c with stroke %d reversed", l.Char, k), off, l})
		}
	}
	for _, pair := range [][2]rune{{'D', 'P'}, {'P', 'D'}, {'O', 'S'}, {'S', 'O'}} {
		a, _ := Lookup(pair[0])
		b, _ := Lookup(pair[1])
		cases = append(cases, seqCase{fmt.Sprintf("%c laid out as %c", pair[0], pair[1]), refMotions(a), b})
	}
	h, _ := Lookup('H')
	cases = append(cases,
		seqCase{"five strokes", append(refMotions(h), refMotions(h)[:2]...), h},
		seqCase{"a click", []stroke.Motion{stroke.M(stroke.Click, 0)}, h},
		seqCase{"empty", nil, h},
	)

	rng := rand.New(rand.NewSource(3))
	for _, c := range cases {
		if got, want := Candidates(c.motions), refCandidates(c.motions); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Candidates = %d letters, reference %d", c.name, len(got), len(want))
		}
		for variant := 0; variant < 5; variant++ {
			obs := make([]Observed, len(c.motions))
			for i, mo := range c.motions {
				box := stroke.Unit
				if i < len(c.layout.Strokes) {
					box = c.layout.Strokes[i].Box
				}
				obs[i] = Observed{Motion: mo, Box: box}
				switch {
				case variant == 4:
					// Infinitely far off: every candidate scores +Inf, a tie
					// the first letter in alphabetical order must win.
					inf := math.Inf(1)
					obs[i].Box = stroke.R(inf, inf, inf, inf)
					continue
				case variant > 0:
					j := 0.15 * float64(variant)
					obs[i].Box = stroke.R(box.X0+j*(rng.Float64()-0.5), box.Y0+j*(rng.Float64()-0.5),
						box.X1+j*(rng.Float64()-0.5), box.Y1+j*(rng.Float64()-0.5))
				}
				if variant%2 == 1 {
					obs[i].CenterX, obs[i].CenterY, obs[i].HasCenter = rng.Float64(), rng.Float64(), true
				}
			}
			gotCh, gotOK := Deduce(obs)
			wantCh, wantOK := refDeduce(obs)
			if gotCh != wantCh || gotOK != wantOK {
				t.Errorf("%s variant %d: Deduce = %q/%v, reference %q/%v", c.name, variant, gotCh, gotOK, wantCh, wantOK)
			}
			gotCh, gotOK = DeduceFuzzy(obs)
			wantCh, wantOK = refDeduceFuzzy(obs)
			if gotCh != wantCh || gotOK != wantOK {
				t.Errorf("%s variant %d: DeduceFuzzy = %q/%v, reference %q/%v", c.name, variant, gotCh, gotOK, wantCh, wantOK)
			}
		}
	}
}
