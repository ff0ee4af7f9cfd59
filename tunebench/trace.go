package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are offsets from the start of the traced run.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Shadow marks a call the benchmark repeats on the exact inputs a
	// parent call used internally (the model fit inside Process.Observe,
	// say), to attribute that part of the parent's time to its layer.
	// A shadow span runs after its parent, outside the parent's
	// interval; the parent's self time subtracts its duration.
	Shadow bool `json:"shadow,omitempty"`
	// N is a size the call worked on (training samples for a fit,
	// bytes for a checkpoint), or 0.
	N int `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory. It is used from one goroutine; a nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	// cost is the time spent inside begin and end themselves.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(layer, name, tenant string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Tenant: tenant,
		Layer: layer, Name: name, Start: now.Sub(t.t0),
	})
	t.cost += time.Since(now)
	return len(t.spans)
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.spans[id-1].End = now.Sub(t.t0)
	t.cost += time.Since(now)
}

// endN closes a span and records the size it worked on.
func (t *tracer) endN(id, n int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].N = n
	t.end(id)
}

// shadow opens a span that attributes part of parent's time.
func (t *tracer) shadow(layer, name, tenant string, parent int) int {
	id := t.begin(layer, name, tenant, parent)
	if id != 0 {
		t.spans[id-1].Shadow = true
	}
	return id
}

// selfTimes returns each span's self time: its duration minus what its
// children cover. A child nests inside its parent's interval, except a
// shadow child: it stands for work inside its parent but ran later,
// inside the nearest ancestor whose interval holds it. So a shadow's
// duration comes off its parent's self time (the work it attributes)
// and off that enclosing ancestor's (the interval it occupied), and
// the self times of a call tree still add up to the real time of the
// calls.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		self[s.Parent-1] -= s.dur()
		if !s.Shadow {
			continue
		}
		for a := spans[s.Parent-1].Parent; a > 0; a = spans[a-1].Parent {
			if spans[a-1].Start <= s.Start && s.End <= spans[a-1].End {
				self[a-1] -= s.dur()
				break
			}
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// byName groups span durations (in spans' order) by span name.
func byName(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for i := range spans {
		out[spans[i].Name] = append(out[spans[i].Name], spans[i].dur())
	}
	return out
}

// writeSpans writes the spans as JSON lines, sorted by start.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range sorted {
		if err := enc.Encode(&sorted[i]); err != nil {
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
