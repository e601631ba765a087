package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// A span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a cell's root span
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Cell     string `json:"cell"`
	Pass     int    `json:"pass"`
}

func (s span) dur() int64 { return s.End - s.Start }

// A tracer keeps spans in memory; they are written out once the benchmark
// ends. A nil *tracer records nothing: the untraced run pays two clock
// reads per set-up layer and registers the periodic callbacks unwrapped.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	workload string
	cell     string
	pass     int
}

// now reads the wall clock. The benchmark measures host time around calls
// into the simulator; the simulation itself runs on the virtual clock.
func now() time.Time {
	//waspvet:wallclock benchmark timing of host time; never feeds the simulation
	return time.Now()
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: now(), workload: workload}
}

// begin opens a span at the given instant, nested in the innermost open
// span, and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, at time.Time) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Start: at.Sub(t.epoch).Nanoseconds(),
		Workload: t.workload, Cell: t.cell, Pass: t.pass,
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[id].End = at.Sub(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// layer times fn as one span.
func (t *tracer) layer(name string, fn func() error) error {
	id := t.begin(name, now())
	err := fn()
	t.end(id, now())
	return err
}

// wrap times every call of a periodic callback as a span; on a nil tracer
// it returns fn itself.
func (t *tracer) wrap(name string, fn func(vclock.Time)) func(vclock.Time) {
	if t == nil {
		return fn
	}
	return func(at vclock.Time) {
		id := t.begin(name, now())
		fn(at)
		t.end(id, now())
	}
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the time its child spans cover. Spans run on one
// goroutine, so children never overlap each other. spans is a run of
// consecutive ids that holds each span's parent.
func selfTimes(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent-spans[0].ID] -= s.dur()
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
