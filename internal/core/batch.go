package core

import "time"

// BatchResult pairs a detected span with its recognition.
type BatchResult struct {
	Span   Span
	Result MotionResult
}

// RecognizeStream runs offline recognition over a complete capture:
// segment the stream, then recognize each detected span. Spans whose
// windows fail recognition are still reported (Result.Ok false) so
// callers can count false positives. The capture is only read.
func (p *Pipeline) RecognizeStream(capture *ReadingBatch, seg *Segmenter, start, end time.Duration) []BatchResult {
	if seg == nil {
		seg = NewSegmenter()
	}
	spans := seg.Segment(capture, p.Cal, start, end)
	out := make([]BatchResult, 0, len(spans))
	for _, sp := range spans {
		res := p.RecognizeWindow(capture.Window(sp.Start, sp.End))
		out = append(out, BatchResult{Span: sp, Result: res})
	}
	return out
}
