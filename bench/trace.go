package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only in this package, around each call
// the benchmark makes into a layer of the system.
const (
	spanPass        uint8 = iota // one pass of a closed loop, or the whole paced run
	spanRunStream                // engine.RunStream for one plate
	spanSourcePull               // the engine pulling the next frame from its source
	spanSessionRead              // llrp.Session.NextReports
	spanClusterPush              // cluster.Cluster.Push
	spanOnEvent                  // the OnEvent callback
	spanLabeled                  // a ladder span, named by its label
)

var spanNames = []string{
	"pass", "engine.run_stream", "source.pull", "llrp.session_next_reports",
	"cluster.push", "on_event", "ladder",
}

// span is one recorded interval. trace groups the spans of one plate in
// one pass; parent is the id of the span that caused it (0 for none).
type span struct {
	trace, label uint32
	id, parent   uint32
	name         uint8
	start, end   int64
	readings     int32
}

// tracer keeps spans in a preallocated buffer and writes them out when
// the run ends. A nil tracer records nothing, so untraced runs pay one
// nil check per call site. Slots are claimed with an atomic counter;
// once the buffer is full further spans are counted as dropped.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	// limit caps the slots workload spans may claim, keeping the rest of
	// the buffer for the ladder, which raises it to the full capacity.
	limit atomic.Int64
	// labels names spanLabeled spans, indexed by span.label.
	labels   []string
	labelIdx map[string]uint32
}

func newTracer(t0 time.Time, capacity int) *tracer {
	t := &tracer{t0: t0, spans: make([]span, capacity)}
	t.limit.Store(int64(capacity) * 7 / 8)
	return t
}

// begin claims a span id and returns it with the start time. id 0 means
// the span is not recorded.
func (t *tracer) begin() (uint32, int64) {
	if t == nil {
		return 0, 0
	}
	i := t.next.Add(1)
	if i > t.limit.Load() {
		// Give the slot back: a successful claim never exceeds the limit,
		// so ids stay unique while the counter settles at the limit.
		t.next.Add(-1)
		t.dropped.Add(1)
		return 0, 0
	}
	return uint32(i), t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end fills in a span begun with begin.
func (t *tracer) end(id uint32, trace, parent uint32, name uint8, start int64, readings int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1] = span{trace: trace, id: id, parent: parent, name: name,
		start: start, end: t.now(), readings: int32(readings)}
}

// endLabel fills in a span begun with begin under a free-form name.
// Only the ladder uses it, from a single goroutine.
func (t *tracer) endLabel(id, trace, parent uint32, label string, start int64, readings int) {
	if t == nil || id == 0 {
		return
	}
	idx, ok := t.labelIdx[label]
	if !ok {
		if t.labelIdx == nil {
			t.labelIdx = map[string]uint32{}
		}
		idx = uint32(len(t.labels))
		t.labelIdx[label] = idx
		t.labels = append(t.labels, label)
	}
	t.end(id, trace, parent, spanLabeled, start, readings)
	t.spans[id-1].label = idx
}

// recorded returns the filled spans. Call it only after every recording
// goroutine has finished.
func (t *tracer) recorded() []span {
	n := min(t.next.Load(), t.limit.Load())
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.id != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns (span
// duration minus the union of its children's intervals inside it), the
// span count, and the readings the spans carried.
func selfTimes(spans []span, labels []string) map[string][3]float64 {
	children := map[uint32][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string][3]float64{}
	for _, s := range spans {
		self := s.end - s.start - covered(children[s.id], s.start, s.end)
		name := spanNames[s.name]
		if s.name == spanLabeled {
			name = labels[s.label]
		}
		acc := out[name]
		acc[0] += float64(self)
		acc[1]++
		acc[2] += float64(s.readings)
		out[name] = acc
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		name := spanNames[s.name]
		if s.name == spanLabeled {
			name = t.labels[s.label]
		}
		rec := struct {
			Trace    string `json:"trace"`
			Span     uint32 `json:"span"`
			Parent   uint32 `json:"parent,omitempty"`
			Name     string `json:"name"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			Readings int32  `json:"readings"`
		}{traceName(s.trace), s.id, s.parent, name, s.start, s.end, s.readings}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// traceID packs a pass and a plate into one trace identifier.
func traceID(pass, plate int) uint32 { return uint32(pass)<<16 | uint32(plate)&0xffff }

func traceName(id uint32) string {
	if id == ladderTrace {
		return "ladder"
	}
	if id&0xffff == 0xffff { // the pass itself
		return fmt.Sprintf("pass-%d", id>>16)
	}
	return fmt.Sprintf("pass-%d/plate-%d", id>>16, id&0xffff)
}
