package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ppbflash/internal/ftl"
)

// spanKind names a layer boundary the traced replay records.
type spanKind uint8

const (
	spanSetup spanKind = iota
	spanSetupDevice
	spanSetupFTL
	spanSetupPrefill
	spanReplay
	spanNext
	spanFTLRead
	spanFTLWrite
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup", "setup.device", "setup.ftl", "setup.prefill",
	"harness.replay", "trace.next", "ftl.read", "ftl.write",
}

// Span sampling: every call is timed into the per-layer totals, but only
// the spans of one request in sampleEvery are kept, so the span log of a
// multi-million-call replay stays a few megabytes. The buffer is
// allocated before the replay, keeping the replay's allocation count the
// program's own.
const (
	sampleEvery = 256
	maxSpans    = 1 << 16
)

// span is one recorded call: its layer, the span that caused it (an index
// into the log, -1 for a root), the request it served (0 for setup) and
// its start and end since the tracer's origin.
type span struct {
	kind       spanKind
	parent     int32
	req        uint64
	start, end time.Duration
}

// tracer records spans at the layer boundaries the benchmark can wrap
// from its own code: the input stream's Next, the FTL's Write and Read,
// harness.ReplayQueued and setup. A nil *tracer records nothing, which is
// how the untraced replays run.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32 // indexes of the begun, not yet ended spans
	total  [numSpanKinds]time.Duration
	count  [numSpanKinds]uint64

	req       uint64 // the request being pulled or issued
	sampled   bool   // whether req's spans are kept
	parent    int32  // the replay span, parent of every per-request span
	nextStart time.Duration

	// profile receives a CPU profile of the replay.
	profile io.Writer
}

func newTracer(profile io.Writer) *tracer {
	return &tracer{
		origin:  time.Now(),
		spans:   make([]span, 0, maxSpans),
		open:    make([]int32, 0, 4),
		parent:  -1,
		profile: profile,
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	t.open = append(t.open, idx)
	if k == spanReplay {
		t.parent = idx
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	idx := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[idx]
	s.end = t.now()
	t.total[s.kind] += s.end - s.start
	t.count[s.kind]++
}

// record accounts one per-request call and keeps its span when the
// request is sampled.
func (t *tracer) record(k spanKind, start, end time.Duration) {
	t.total[k] += end - start
	t.count[k]++
	if t.sampled && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{kind: k, parent: t.parent, req: t.req, start: start, end: end})
	}
}

func (t *tracer) beginNext() {
	if t == nil {
		return
	}
	t.req++
	t.sampled = t.req%sampleEvery == 0
	t.nextStart = t.now()
}

func (t *tracer) endNext() {
	if t == nil {
		return
	}
	t.record(spanNext, t.nextStart, t.now())
}

// writeChrome writes the span log as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err := enc.Encode(event{
			Name: spanNames[s.kind], Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
		})
		if err != nil {
			out.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// tracedFTL times every page call into the FTL.
type tracedFTL struct {
	ftl.FTL
	tr *tracer
}

// Write implements ftl.FTL.
func (t *tracedFTL) Write(lpn uint64, reqSize int) error {
	start := t.tr.now()
	err := t.FTL.Write(lpn, reqSize)
	t.tr.record(spanFTLWrite, start, t.tr.now())
	return err
}

// Read implements ftl.FTL.
func (t *tracedFTL) Read(lpn uint64) (bool, error) {
	start := t.tr.now()
	mapped, err := t.FTL.Read(lpn)
	t.tr.record(spanFTLRead, start, t.tr.now())
	return mapped, err
}
