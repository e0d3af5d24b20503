package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. parent is an index into tracer.spans, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since tracer.t0
	args       map[string]any
}

// tracer keeps spans in memory; nothing is written until the pass is over.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name, nested under whatever span is open,
// and returns the span's index.
func (t *tracer) do(name string, fn func()) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.t0)
	return id
}

func (t *tracer) setArg(id int, key string, v any) {
	if t.spans[id].args == nil {
		t.spans[id].args = map[string]any{}
	}
	t.spans[id].args[key] = v
}

func (t *tracer) dur(id int) time.Duration { return t.spans[id].end - t.spans[id].start }

// selfTime is a span's duration minus the part its direct children cover.
func (t *tracer) selfTime(id int) time.Duration {
	self := t.dur(id)
	for i := range t.spans {
		if t.spans[i].parent == id {
			self -= t.dur(i)
		}
	}
	return self
}

// find returns the first span with the given name, or -1.
func (t *tracer) find(name string) int {
	for i := range t.spans {
		if t.spans[i].name == name {
			return i
		}
	}
	return -1
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"self_us": float64(t.selfTime(i)) / 1e3}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1, Args: args}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
