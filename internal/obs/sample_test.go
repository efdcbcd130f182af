package obs

import (
	"math"
	"testing"
)

// mkTrace builds one finished trace of spans directly (ids are arbitrary but
// unique per call site's choosing).
func mkTrace(trace uint64, kind string, dur float64, attrs map[string]any) []SpanRecord {
	return []SpanRecord{{Trace: trace, ID: trace*10 + 1, Kind: kind, Start: 0, End: dur, Attrs: attrs}}
}

func TestSamplerAlwaysKeepsErrorSlowLifecycle(t *testing.T) {
	s := NewSampler(SampleConfig{Rate: 0, Seed: 1}) // rate 0: only criteria keep
	cases := []struct {
		name string
		recs []SpanRecord
		want bool
	}{
		{"error attr", mkTrace(1, "request", 0.01, map[string]any{"error": "deadline"}), true},
		{"degraded attr", mkTrace(2, "request", 0.01, map[string]any{"degraded": true}), true},
		{"slow root", mkTrace(3, "request", 0.5, nil), true},
		{"lifecycle root", mkTrace(4, "rejuvenation", 0.001, nil), true},
		{"normal fast", mkTrace(5, "request", 0.01, nil), false},
		{"degraded false", mkTrace(6, "request", 0.01, map[string]any{"degraded": false}), false},
		{"error on child", []SpanRecord{
			{Trace: 7, ID: 71, Kind: "request", Start: 0, End: 0.01},
			{Trace: 7, ID: 72, Parent: 71, Kind: "forward", Start: 0, End: 0.01,
				Attrs: map[string]any{"error": "worker gone"}},
		}, true},
	}
	for _, c := range cases {
		got := s.Retain(c.recs)
		kept := len(got) > 0
		if kept != c.want {
			t.Errorf("%s: retained=%v, want %v", c.name, kept, c.want)
		}
		if kept && len(got) != len(c.recs) {
			t.Errorf("%s: retained %d of %d spans (traces are all-or-nothing)", c.name, len(got), len(c.recs))
		}
	}
}

func TestSamplerHashFractionApproximatesRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5} {
		s := NewSampler(SampleConfig{Rate: rate, Seed: 42})
		kept := 0
		const n = 20000
		for tr := uint64(1); tr <= n; tr++ {
			if len(s.Retain(mkTrace(tr, "request", 0.001, nil))) > 0 {
				kept++
			}
		}
		got := float64(kept) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %v: kept fraction %v", rate, got)
		}
	}
}

func TestSamplerDeterministicAcrossInstances(t *testing.T) {
	a := NewSampler(SampleConfig{Rate: 0.3, Seed: 7})
	b := NewSampler(SampleConfig{Rate: 0.3, Seed: 7})
	diff := NewSampler(SampleConfig{Rate: 0.3, Seed: 8})
	var disagreeSeed int
	for tr := uint64(1); tr <= 1000; tr++ {
		recs := mkTrace(tr, "request", 0.001, nil)
		ka := len(a.Retain(recs)) > 0
		kb := len(b.Retain(recs)) > 0
		if ka != kb {
			t.Fatalf("trace %d: same seed disagreed", tr)
		}
		if kd := len(diff.Retain(recs)) > 0; kd != ka {
			disagreeSeed++
		}
	}
	if disagreeSeed == 0 {
		t.Fatal("different seeds never disagreed; hash likely ignores seed")
	}
}

func TestSamplerDecisionCacheRoutesLateChildren(t *testing.T) {
	s := NewSampler(SampleConfig{Rate: 0, Seed: 1})
	// Slow root: kept. A late child of the same trace is fast and has no
	// error, but must follow the cached decision.
	root := mkTrace(9, "request", 0.9, nil)
	if len(s.Retain(root)) == 0 {
		t.Fatal("slow root not retained")
	}
	late := []SpanRecord{{Trace: 9, ID: 95, Parent: 91, Kind: "reply", Start: 0.9, End: 0.91}}
	if len(s.Retain(late)) == 0 {
		t.Fatal("late child of a retained trace was dropped")
	}
	// And the inverse: late child of a sampled-out trace is dropped too.
	if len(s.Retain(mkTrace(10, "request", 0.001, nil))) != 0 {
		t.Fatal("normal trace unexpectedly retained at rate 0")
	}
	late = []SpanRecord{{Trace: 10, ID: 105, Parent: 101, Kind: "reply",
		Start: 0.001, End: 0.9}} // slow on its own, but the trace was judged
	if len(s.Retain(late)) != 0 {
		t.Fatal("late child of a sampled-out trace was retained")
	}
	if keep, known := s.Decision(10); !known || keep {
		t.Fatalf("Decision(10) = %v,%v, want false,true", keep, known)
	}
}

func TestSamplerNilRetainsEverything(t *testing.T) {
	var s *Sampler
	recs := mkTrace(1, "request", 0.001, nil)
	if got := s.Retain(recs); len(got) != len(recs) {
		t.Fatal("nil sampler dropped spans")
	}
	if s.Rate() != 1 {
		t.Fatal("nil sampler rate != 1")
	}
	if k, o := s.Stats(); k != 0 || o != 0 {
		t.Fatal("nil sampler stats non-zero")
	}
}

func TestSinkSamplingFiltersRingAndJSONLNotFirehose(t *testing.T) {
	sink := NewSpanSink(64)
	sink.SetSampler(NewSampler(SampleConfig{Rate: 0, Seed: 3}))
	full := &captureObserver{}
	samp := &captureObserver{}
	sink.Attach(full)
	sink.AttachSampled(samp)

	fast := sink.StartTrace("request")
	fast.End()
	slow := sink.StartTrace("request")
	slow.EndAt(slow.rec.Start + 1.0)

	if got := sink.Published(); got != 2 {
		t.Fatalf("Published = %d, want 2 (pre-sampling)", got)
	}
	if got := sink.Retained(); got != 1 {
		t.Fatalf("Retained = %d, want 1", got)
	}
	recs := sink.Spans()
	if len(recs) != 1 || recs[0].Trace != slow.TraceID() {
		t.Fatalf("ring holds %v, want only the slow trace", recs)
	}
	if full.count != 2 {
		t.Fatalf("firehose observer saw %d spans, want 2", full.count)
	}
	if samp.count != 1 {
		t.Fatalf("sampled observer saw %d spans, want 1", samp.count)
	}
}

type captureObserver struct{ count int }

func (c *captureObserver) ObserveSpans(recs []SpanRecord, _ float64) { c.count += len(recs) }

// TestRingOverflowDropCounters overflows the span ring with intervals and
// instants alike and asserts the silent-loss bugfix: evictions must show up
// on the metrics path.
func TestRingOverflowDropCounters(t *testing.T) {
	rt := NewRuntime(4)
	for i := 0; i < 5; i++ {
		sp := rt.Spans().StartTrace("request")
		sp.End()
		rt.Spans().Emit(rt.Spans().NewTraceID(), 0, "tick", float64(i), float64(i), nil)
	}
	if got := rt.Spans().Dropped(); got != 6 {
		t.Fatalf("sink dropped %d, want 6", got)
	}
	if got := rt.Metrics().Counter(MetricDroppedSpans).Value(); got != 6 {
		t.Fatalf("%s = %d, want 6", MetricDroppedSpans, got)
	}
}

// TestSamplerRetainsEveryEventSpan: instants are zero-duration root spans of
// their own kind, and at a 10% rate for normal traffic every one of them must
// survive tail sampling — an event stream with holes would be useless to an
// incident timeline.
func TestSamplerRetainsEveryEventSpan(t *testing.T) {
	sink := NewSpanSink(4096)
	sink.SetSampler(NewSampler(SampleConfig{Rate: 0.1, Seed: 7}))
	events := []string{"voter_skip", "rejuvenation_trigger", "compromise",
		"perception_skip", "collision", "run_end", "petri_run_end"}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		at := float64(i)
		for _, kind := range events {
			sink.Emit(sink.NewTraceID(), 0, kind, at, at, nil)
		}
		sink.Emit(sink.NewTraceID(), 0, "request", at, at+0.001, nil)
	}
	kinds := map[string]int{}
	for _, r := range sink.Spans() {
		kinds[r.Kind]++
	}
	for _, kind := range events {
		if kinds[kind] != rounds {
			t.Errorf("%d of %d %s spans retained at rate 0.1", kinds[kind], rounds, kind)
		}
	}
	if kinds["request"] == 0 || kinds["request"] > rounds/2 {
		t.Errorf("%d of %d request traces retained at rate 0.1", kinds["request"], rounds)
	}
}

func TestRuntimeSamplerCounters(t *testing.T) {
	rt := NewRuntime(16)
	rt.SetSampler(NewSampler(SampleConfig{Rate: 0, Seed: 1}))
	fast := rt.Spans().StartTrace("request")
	fast.End()
	slow := rt.Spans().StartTrace("rejuvenation")
	slow.End()
	if got := rt.Metrics().Counter(MetricSampledTraces, "decision", "kept").Value(); got != 1 {
		t.Fatalf("kept counter = %d, want 1", got)
	}
	if got := rt.Metrics().Counter(MetricSampledTraces, "decision", "sampled_out").Value(); got != 1 {
		t.Fatalf("sampled_out counter = %d, want 1", got)
	}
}
