package core

import (
	"errors"
	"fmt"

	"rfipad/internal/dsp"
)

// minCalibrationReads is the minimum per-tag sample count for a usable
// calibration (the paper interrogates each tag 100 times for Fig. 4/5;
// far fewer suffice for stable means).
const minCalibrationReads = 8

// biasFloor keeps the inverse-bias weighting finite for unnaturally
// quiet tags.
const biasFloor = 0.005

// maxDeadFraction is the largest share of the array that may be dead
// (unreadable during the static capture) before calibration refuses:
// past that, neighbor interpolation has too little live context and
// the disturbance image degrades into guesswork.
const maxDeadFraction = 0.25

// Calibration holds the per-tag statistics RFIPad learns from a static
// capture (no hand present): the mean phase θ̃_i that cancels tag
// diversity (Eq. 6–8) and the deviation bias b_i whose inverse weights
// out location diversity (Eq. 9–10). Calibration is environmental, not
// behavioural: the paper's "no training period" claim refers to user
// behaviour — this static capture is a one-off deployment step.
type Calibration struct {
	// MeanPhase is θ̃_i: the circular mean of each tag's static phase.
	MeanPhase []float64
	// Bias is b_i: each tag's static phase standard deviation.
	Bias []float64
	// TVRate is each tag's measured noise accumulation rate: the total
	// variation its *static* suppressed phase stream gains per sample.
	// The disturbance metric subtracts TVRate·n from a window's total
	// variation, so a tag sitting in heavy ambient multipath does not
	// masquerade as hand motion — the operational form of the paper's
	// deviation-bias weighting.
	TVRate []float64
	// Dead flags tags the static capture could not characterize (too
	// few reads: detached, detuned, occluded, or lost to collisions).
	// Dead tags carry zero weight; the disturbance image interpolates
	// their cells from live neighbors before binarization.
	Dead []bool
	// weights caches w_i of Eq. 9.
	weights []float64
}

// Calibrate is CalibrateBatch over a static capture held as reading
// records, for callers that still hold records.
func Calibrate(static []Reading, numTags int) (*Calibration, error) {
	var b ReadingBatch
	for _, rd := range static {
		b.AppendReading(rd)
	}
	return CalibrateBatch(&b, numTags)
}

// CalibrateBatch computes the per-tag statistics from a static capture.
// Tags with fewer than minCalibrationReads reads are flagged dead
// rather than failing the whole calibration — a production array
// survives a detached or occluded tag. Calibration only errors when
// so much of the array is dead (over maxDeadFraction) that the
// disturbance image could not be trusted. It splits the capture by tag
// the way a stroke window is split, into a pooled window scratch, so
// duplicates and out-of-range tags are dropped alike. The batch is
// only read.
func CalibrateBatch(static *ReadingBatch, numTags int) (*Calibration, error) {
	if numTags <= 0 {
		return nil, errors.New("core: calibrate: no tags")
	}
	sc := scratchPool.Get().(*DisturbanceScratch)
	defer scratchPool.Put(sc)
	sc.split.split(*static, numTags)
	c := &Calibration{
		MeanPhase: make([]float64, numTags),
		Bias:      make([]float64, numTags),
		TVRate:    make([]float64, numTags),
		Dead:      make([]bool, numTags),
		weights:   make([]float64, numTags),
	}
	var biasSum float64
	dead := 0
	for i := 0; i < numTags; i++ {
		phases := sc.split.run(i).phases
		if len(phases) < minCalibrationReads {
			c.Dead[i] = true
			dead++
			continue
		}
		mean, b := dsp.CircularMeanStd(phases)
		c.MeanPhase[i] = mean
		if b < biasFloor {
			b = biasFloor
		}
		c.Bias[i] = b
		biasSum += b

		// Noise accumulation rate: run the same suppression, unwrap,
		// smoothing, and total variation the disturbance metric uses
		// over this static stream.
		tv, _ := dsp.PhaseVariation(phases, mean)
		c.TVRate[i] = tv / float64(len(phases)-1)
	}
	if float64(dead) > maxDeadFraction*float64(numTags) {
		return nil, fmt.Errorf("core: calibrate: %d of %d tags have < %d reads — grid too degraded",
			dead, numTags, minCalibrationReads)
	}
	for i := range c.weights {
		if !c.Dead[i] {
			c.weights[i] = c.Bias[i] / biasSum // Eq. 9 over the live population
		}
	}
	return c, nil
}

// CalibrationSnapshot is the serializable form of a Calibration: the
// measured per-tag statistics without the derived weights, which
// RestoreCalibration recomputes. It is the payload checkpointing
// persists across process restarts.
type CalibrationSnapshot struct {
	MeanPhase []float64 `json:"mean_phase"`
	Bias      []float64 `json:"bias"`
	TVRate    []float64 `json:"tv_rate"`
	Dead      []bool    `json:"dead"`
}

// Snapshot exports the calibration's measured state (deep copy).
func (c *Calibration) Snapshot() CalibrationSnapshot {
	return CalibrationSnapshot{
		MeanPhase: append([]float64(nil), c.MeanPhase...),
		Bias:      append([]float64(nil), c.Bias...),
		TVRate:    append([]float64(nil), c.TVRate...),
		Dead:      append([]bool(nil), c.Dead...),
	}
}

// RestoreCalibration rebuilds a Calibration from a snapshot,
// revalidating it as if it had just been measured: consistent lengths,
// finite statistics, positive bias on live tags, and the same
// dead-fraction bound Calibrate enforces. A snapshot that fails any
// check returns an error so the caller falls back to live calibration
// rather than recognizing against garbage.
func RestoreCalibration(s CalibrationSnapshot) (*Calibration, error) {
	n := len(s.MeanPhase)
	if n == 0 {
		return nil, errors.New("core: restore calibration: no tags")
	}
	if len(s.Bias) != n || len(s.TVRate) != n || len(s.Dead) != n {
		return nil, fmt.Errorf("core: restore calibration: inconsistent lengths (%d/%d/%d/%d)",
			n, len(s.Bias), len(s.TVRate), len(s.Dead))
	}
	c := &Calibration{
		MeanPhase: append([]float64(nil), s.MeanPhase...),
		Bias:      append([]float64(nil), s.Bias...),
		TVRate:    append([]float64(nil), s.TVRate...),
		Dead:      append([]bool(nil), s.Dead...),
		weights:   make([]float64, n),
	}
	var biasSum float64
	dead := 0
	for i := 0; i < n; i++ {
		if c.Dead[i] {
			dead++
			continue
		}
		if !isFinite(c.MeanPhase[i]) || !isFinite(c.Bias[i]) || !isFinite(c.TVRate[i]) {
			return nil, fmt.Errorf("core: restore calibration: tag %d has non-finite statistics", i)
		}
		if c.Bias[i] <= 0 {
			return nil, fmt.Errorf("core: restore calibration: tag %d has non-positive bias %v", i, c.Bias[i])
		}
		biasSum += c.Bias[i]
	}
	if float64(dead) > maxDeadFraction*float64(n) {
		return nil, fmt.Errorf("core: restore calibration: %d of %d tags dead — grid too degraded", dead, n)
	}
	for i := range c.weights {
		if !c.Dead[i] {
			c.weights[i] = c.Bias[i] / biasSum
		}
	}
	return c, nil
}

// DeadCount returns how many tags calibration flagged dead.
func (c *Calibration) DeadCount() int {
	n := 0
	for _, d := range c.Dead {
		if d {
			n++
		}
	}
	return n
}

// IsDead reports whether tag i was flagged dead (false for
// calibrations predating the flag).
func (c *Calibration) IsDead(i int) bool {
	return c.Dead != nil && i < len(c.Dead) && c.Dead[i]
}

// Weight returns w_i of Eq. 9 for tag i.
func (c *Calibration) Weight(i int) float64 { return c.weights[i] }

// NumTags returns the calibrated population size.
func (c *Calibration) NumTags() int { return len(c.MeanPhase) }

// UniformCalibration builds a calibration with zero mean offsets and
// equal weights — what the pipeline degenerates to when diversity
// suppression is disabled (the "without suppression" arm of Fig. 16).
func UniformCalibration(numTags int) *Calibration {
	c := &Calibration{
		MeanPhase: make([]float64, numTags),
		Bias:      make([]float64, numTags),
		TVRate:    make([]float64, numTags),
		Dead:      make([]bool, numTags),
		weights:   make([]float64, numTags),
	}
	for i := range c.weights {
		c.Bias[i] = 1
		c.weights[i] = 1 / float64(numTags)
	}
	return c
}
