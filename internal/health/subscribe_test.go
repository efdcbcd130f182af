package health

import (
	"reflect"
	"testing"

	"mvml/internal/obs"
)

// TestSubscribeReceivesEveryTransition pins the push contract: a subscriber
// sees exactly the engine's recorded timeline, in order, and the last
// overall level it saw matches the engine's own.
func TestSubscribeReceivesEveryTransition(t *testing.T) {
	e := NewEngine(testEngineOptions(), nil)
	var got []Transition
	e.Subscribe(func(tr Transition) { got = append(got, tr) })
	e.ObserveSpans(incidentStream(), 0)

	rep := e.Report()
	if len(rep.Timeline) == 0 {
		t.Fatal("incident stream produced no transitions")
	}
	if !reflect.DeepEqual(got, rep.Timeline) {
		t.Fatalf("subscriber saw %d transitions, timeline has %d:\n%v\nvs\n%v",
			len(got), len(rep.Timeline), got, rep.Timeline)
	}
	last := Healthy
	for _, tr := range got {
		if tr.Component == "overall" {
			last = tr.To
		}
	}
	if overall := e.Snapshot().Overall; last != overall {
		t.Fatalf("replayed subscriber level %v != engine level %v", last, overall)
	}
}

// TestSubscribeBatchedDelivery: transitions buffered within one ObserveSpans
// batch are delivered after that batch, not lost, when subscribing midway.
func TestSubscribeLateSubscriberMissesHistory(t *testing.T) {
	e := NewEngine(testEngineOptions(), nil)
	recs := incidentStream()
	e.ObserveSpans(recs[:len(recs)/2], 0)
	var got []Transition
	e.Subscribe(func(tr Transition) { got = append(got, tr) })
	e.ObserveSpans(recs[len(recs)/2:], 0)
	rep := e.Report()
	if len(got) >= len(rep.Timeline) {
		t.Fatalf("late subscriber replayed history: got %d of %d", len(got), len(rep.Timeline))
	}
}

// TestShardFilter pins the multi-shard attribution contract: an engine with
// a ShardFilter judges only spans carrying its own shard label, so one shared
// sink can feed N independent per-shard verdicts.
func TestShardFilter(t *testing.T) {
	label := func(recs []obs.SpanRecord, shard string) []obs.SpanRecord {
		out := make([]obs.SpanRecord, len(recs))
		for i, r := range recs {
			attrs := map[string]any{"shard": shard}
			for k, v := range r.Attrs {
				attrs[k] = v
			}
			r.Attrs = attrs
			out[i] = r
		}
		return out
	}

	// Foreign spans only: the filtered engine must stay a blank slate.
	foreign := NewEngine(Options{ShardFilter: "shard-a"}, nil)
	var got []Transition
	foreign.Subscribe(func(tr Transition) { got = append(got, tr) })
	foreign.ObserveSpans(label(incidentStream(), "shard-b"), 0)
	if overall := foreign.Snapshot().Overall; len(got) != 0 || overall != Healthy {
		t.Fatalf("engine judged foreign spans: %d transitions, level %v", len(got), overall)
	}
	if rounds := foreign.Report().RoundsDecided; rounds != 0 {
		t.Fatalf("foreign spans counted as %d decided rounds", rounds)
	}

	// Matching spans must produce the same verdict as an unfiltered engine
	// over the unlabelled stream: filtering selects, it never distorts.
	opts := testEngineOptions()
	opts.ShardFilter = "shard-a"
	filtered := NewEngine(opts, nil)
	mixed := append(label(incidentStream(), "shard-a"), label(incidentStream(), "shard-b")...)
	// Interleave is irrelevant for this engine (it advances on span time), so
	// feeding the concatenation suffices to prove selection.
	filtered.ObserveSpans(mixed, 0)

	plain := NewEngine(testEngineOptions(), nil)
	plain.ObserveSpans(incidentStream(), 0)

	a, b := filtered.Report(), plain.Report()
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatalf("filtered verdict diverges from single-shard verdict:\n%v\nvs\n%v", a.Timeline, b.Timeline)
	}
	if a.RoundsDecided != b.RoundsDecided {
		t.Fatalf("filtered engine decided %d rounds, want %d", a.RoundsDecided, b.RoundsDecided)
	}
}

// TestLevelAccessors covers the read API: Snapshot's levels, and the nil
// engine's no-op handle.
func TestLevelAccessors(t *testing.T) {
	var nilEngine *Engine
	if nilEngine.Snapshot() != nil || nilEngine.Report() != nil {
		t.Fatal("nil engine produced a snapshot")
	}
	nilEngine.Subscribe(func(Transition) {}) // must not panic

	e := NewEngine(testEngineOptions(), nil)
	if v := e.Snapshot(); v.Overall != Healthy || componentLevel(v, "no-such-component") != Healthy {
		t.Fatal("fresh engine must read healthy")
	}
	e.ObserveSpans(incidentStream()[:600], 0) // stop mid-incident
	if e.Snapshot().Overall == Healthy {
		t.Fatal("mid-incident engine reads healthy")
	}
}
