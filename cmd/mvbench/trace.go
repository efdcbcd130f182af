package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvml/internal/obs"
)

// span is one interval of a traced run. Source "bench" spans are recorded by
// mvbench around its own calls into a layer; source "program" spans are the
// program's existing request/admission/queue_wait/batch/forward/vote spans,
// read through an obs.SpanObserver. Times are seconds; the two sources keep
// their own clocks (benchEpoch and the sink's epoch), which is enough for
// durations and for self time, the only things derived from them.
type span struct {
	Workload string         `json:"workload,omitempty"` // set when the run's spans are collected
	Source   string         `json:"source"`
	Name     string         `json:"name"`
	Op       uint64         `json:"op"` // the op (bench) or trace (program) the span belongs to
	ID       uint64         `json:"id"`
	Parent   uint64         `json:"parent,omitempty"`
	Start    float64        `json:"start"`
	End      float64        `json:"end"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory. A nil recorder records
// nothing, so call sites need no traced/untraced branches.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// benchEpoch is the zero of every bench span's clock.
var benchEpoch = time.Now()

// now is seconds since benchEpoch; a nil recorder does not read the clock.
func (r *recorder) now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(benchEpoch).Seconds()
}

// id allocates a span id (0 on a nil recorder).
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records one finished bench span.
func (r *recorder) add(name string, op, id, parent uint64, start, end float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Source: "bench", Name: name, Op: op, ID: id, Parent: parent, Start: start, End: end})
	r.mu.Unlock()
}

// ObserveSpans implements obs.SpanObserver: it copies every span the
// program publishes. Attribute maps are shared, which the sink allows
// because emitters never mutate them after publication.
func (r *recorder) ObserveSpans(recs []obs.SpanRecord, _ float64) {
	r.mu.Lock()
	for _, rec := range recs {
		r.spans = append(r.spans, span{Source: "program", Name: rec.Kind, Op: rec.Trace,
			ID: rec.ID, Parent: rec.Parent, Start: rec.Start, End: rec.End, Attrs: rec.Attrs})
	}
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (the three forwards under one batch run concurrently) and may stick out of
// the parent; overlap counts once and the overhang not at all. Ids are unique
// within a source, so call it with one source's spans.
func selfTimes(spans []span) map[uint64]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes spans to path as JSON Lines.
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
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
