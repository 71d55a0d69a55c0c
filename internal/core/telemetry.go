package core

import "rfipad/internal/obs"

// Recognition-stage names recorded under rfipad_stage_seconds. The
// five stages mirror §III's pipeline: stroke segmentation, the
// disturbance image, Otsu binarization + shape classification, RSS
// direction estimation, and letter composition against the grammar.
const (
	StageSegment     = "segment"
	StageDisturbance = "disturbance"
	StageClassify    = "classify"
	StageDirection   = "direction"
	StageGrammar     = "grammar"
)

const (
	stageMetric = "rfipad_stage_seconds"
	stageHelp   = "Per-stroke latency of each recognition stage."
)

// pipelineTel caches the per-window stage histograms and counters so
// RecognizeWindow never touches the registry's maps.
type pipelineTel struct {
	disturbance  *obs.Histogram
	classify     *obs.Histogram
	direction    *obs.Histogram
	windows      *obs.Counter
	interpolated *obs.Counter
}

func newPipelineTel(r *obs.Registry) *pipelineTel {
	r = obs.Or(r)
	return &pipelineTel{
		disturbance: r.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageDisturbance)),
		classify:    r.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageClassify)),
		direction:   r.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageDirection)),
		windows: r.Counter("rfipad_windows_total",
			"Stroke windows run through the recognition pipeline."),
		interpolated: r.Counter("rfipad_interpolated_cells_total",
			"Dead-tag cells filled from live neighbors across all windows."),
	}
}

// recognizerTel caches the streaming recognizer's ingest counters and
// stage histograms; IngestBatch runs once per report batch, so these
// must be straight atomic operations. The segment stage is timed once
// per poll into a buffer on the stack of the IngestBatch or Flush call,
// which folds it into its histogram before it returns, so the streams
// of a shard do not contend on its atomics once per frame.
type recognizerTel struct {
	readings  *obs.Counter
	dupes     *obs.Counter
	late      *obs.Counter
	ahead     *obs.Counter
	reordered *obs.Counter
	strokes   *obs.Counter
	letters   *obs.Counter
	segment   *obs.Histogram
	grammar   *obs.Histogram
}

func newRecognizerTel(r *obs.Registry) *recognizerTel {
	r = obs.Or(r)
	return &recognizerTel{
		readings: r.Counter("rfipad_readings_total",
			"Tag readings ingested by the streaming recognizer."),
		dupes: r.Counter("rfipad_readings_dropped_total",
			"Readings dropped before recognition, by reason.", obs.L("reason", "duplicate")),
		late: r.Counter("rfipad_readings_dropped_total",
			"Readings dropped before recognition, by reason.", obs.L("reason", "late")),
		ahead: r.Counter("rfipad_readings_dropped_total",
			"Readings dropped before recognition, by reason.", obs.L("reason", "ahead")),
		reordered: r.Counter("rfipad_readings_reordered_total",
			"Out-of-order readings inserted back into time order."),
		strokes: r.Counter("rfipad_strokes_total",
			"Strokes recognized."),
		letters: r.Counter("rfipad_letters_total",
			"Letters deduced (including failed compositions)."),
		segment: r.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageSegment)),
		grammar: r.Histogram(stageMetric, stageHelp, nil, obs.L("stage", StageGrammar)),
	}
}
