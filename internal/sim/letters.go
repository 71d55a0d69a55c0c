package sim

import (
	"fmt"

	"rfipad/internal/grammar"
	"rfipad/internal/hand"
)

// LetterSpecs returns the hand-synthesizer stroke specs for writing the
// given letter across the whole canvas, following the grammar's
// canonical decomposition (Fig. 10).
func LetterSpecs(ch rune) ([]hand.Spec, error) {
	l, ok := grammar.Lookup(ch)
	if !ok {
		return nil, fmt.Errorf("sim: no grammar entry for %q", ch)
	}
	specs := make([]hand.Spec, len(l.Strokes))
	for i, p := range l.Strokes {
		specs[i] = hand.Spec{Motion: p.Motion, Box: p.Box}
	}
	return specs, nil
}
