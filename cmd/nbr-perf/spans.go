package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from this command's own files, around its calls into each layer;
// spans inside the program are a later issue.
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int           // index into tracer.spans, -1 for a root
	rep        int           // repetition id shared by a rep's spans, -1 outside reps
	args       map[string]any
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// and a paused one record nothing, so the call sites stay unconditional
// and the untraced reps of a traced run pay only a nil check.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices (one recording goroutine)
	rep    int
	paused bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), rep: -1} }

// begin opens a span under the innermost open one and returns its id
// (-1 when not recording).
func (t *tracer) begin(name string) int {
	if t == nil || t.paused {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, rep: t.rep})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, attaching args (counts read at the same boundary).
func (t *tracer) end(id int, args map[string]any) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.spans[id].args = args
	t.open = t.open[:len(t.open)-1]
}

// add records an already-measured child of the innermost open span
// (sampled planner requests, timed by the workers themselves).
func (t *tracer) add(name string, start, end time.Time, args map[string]any) {
	if t == nil || t.paused {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.t0), end: end.Sub(t.t0),
		parent: parent, rep: t.rep, args: args})
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// repCoverage is the share of the traced reps' wall that their direct
// child spans cover: 1 means the rep's time is fully attributed.
func (t *tracer) repCoverage() float64 {
	var reps, covered time.Duration
	for _, s := range t.spans {
		if s.name == "rep" {
			reps += s.end - s.start
		} else if s.parent >= 0 && t.spans[s.parent].name == "rep" {
			covered += s.end - s.start
		}
	}
	if reps == 0 {
		return 0
	}
	return float64(covered) / float64(reps)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and Perfetto nest events of one tid by time.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent, "rep": s.rep}
		for k, v := range s.args {
			args[k] = v
		}
		tid := 1
		if w, ok := s.args["worker"].(int); ok {
			tid = 2 + w // sampled requests overlap across workers
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
