package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed public call, recorded from the benchmark's side of the
// layer boundary. Name is the layer metric the call feeds.
type span struct {
	ID, Parent int // Parent 0 marks a root span
	Op         int // the op the span belongs to (-1 for set-up work)
	Track      int // Chrome trace thread: 0 main loop, 1+ node connections
	Name       string
	Start, End time.Duration // since the tracer started
	Args       map[string]any
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing, so untraced runs pay only
// a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op, track int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Track: track, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, attaching args (which may be nil), and returns the
// span's duration.
func (t *tracer) end(id int, args map[string]any) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Args = now, args
	return s.End - s.Start
}

// record adds a span whose interval was measured elsewhere, from and to
// being wall-clock instants, and returns its id.
func (t *tracer) record(name string, parent, op, track int, from, to time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Track: track, Name: name,
		Start: from.Sub(t.t0), End: to.Sub(t.t0), Args: args})
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func (t *tracer) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] += ms(d)
	}
	return out
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat"`
	Args  map[string]any `json:"args"`
}

// writeChrome writes the spans in the Chrome trace-event format the
// repository's trace.json uses (chrome://tracing, ui.perfetto.dev): one
// complete event per span, with the op id, parent span and self time in
// args, and the per-layer self-time totals and host metadata under
// otherData.
func (t *tracer) writeChrome(path string, host map[string]string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_ms": ms(self[i])}
		for k, v := range s.Args {
			args[k] = v
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Track + 1, Cat: cat, Args: args,
		})
	}
	other := map[string]string{}
	for k, v := range host {
		other["host."+k] = v
	}
	for name, v := range t.selfByName() {
		other["self_ms."+name] = fmt.Sprintf("%.3f", v)
	}
	b, err := json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       other,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
