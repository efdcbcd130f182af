package tsdb

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mvml/internal/obs"
)

func TestIngesterAggregatesSpanStream(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 120})
	ing := NewIngester(s, nil)
	Replay(demoSpans(), ing)

	horizon := ing.MaxT() + 1
	reqA := s.SumOver(SeriesRequests, 0, horizon, "kind", "request", "shard", "shard-a")
	reqB := s.SumOver(SeriesRequests, 0, horizon, "kind", "request", "shard", "shard-b")
	if reqA+reqB != 119 { // 120 traces minus the rejuvenation
		t.Fatalf("requests a+b = %v+%v, want 119", reqA, reqB)
	}
	if errs := s.FamilySumOver(SeriesErrors, 0, horizon); errs == 0 {
		t.Fatal("no errors ingested")
	}
	if lc := s.SumOver(SeriesLifecycle, 0, horizon, "kind", "rejuvenation"); lc != 1 {
		t.Fatalf("lifecycle rejuvenations = %v, want 1", lc)
	}
	if _, ok := s.QuantileOver(SeriesStage, 0, horizon, 0.5, "kind", "forward", "shard", "shard-a", "version", "v0"); !ok {
		t.Fatal("no per-version forward latency series")
	}
	if v, ok := s.LastValue(SeriesQueue, "shard", "shard-a"); !ok || v < 0 {
		t.Fatalf("queue depth = %v,%v", v, ok)
	}
	// Root request latency histograms carry trace exemplars.
	if ex := s.Exemplars(SeriesStage, "kind", "request", "shard", "shard-a"); len(ex) == 0 {
		t.Fatal("no exemplars on request latency")
	}
	// A slow trace's exemplar resolves near the tail.
	if e, ok := s.ExemplarNear(SeriesStage, 0.5, "kind", "request", "shard", "shard-a"); !ok || e.Trace == 0 {
		t.Fatalf("tail exemplar = %+v,%v", e, ok)
	}
}

// TestLiveEqualsReplay drives a real sink (sampler installed, ingester
// attached post-sampling, JSONL export on) and then replays the export into
// a second store: content and recorded rule series must match exactly.
func TestLiveEqualsReplay(t *testing.T) {
	var jsonl bytes.Buffer
	sink := obs.NewSpanSink(4096)
	sink.SetWriter(&jsonl)
	sink.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.2, Seed: 9}))

	live := New(Config{BucketSeconds: 1, Buckets: 120})
	liveRules := NewRules(live, 1, DefaultServingRules())
	liveIng := NewIngester(live, liveRules)
	sink.AttachSampled(liveIng)

	for i := 0; i < 120; i++ {
		sink.EmitBatch(buildTrace(i))
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadSpans(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || uint64(len(recs)) != sink.Retained() {
		t.Fatalf("export holds %d records, sink retained %d", len(recs), sink.Retained())
	}

	replay := New(Config{BucketSeconds: 1, Buckets: 120})
	replayRules := NewRules(replay, 1, DefaultServingRules())
	Replay(recs, NewIngester(replay, replayRules))

	var a, b bytes.Buffer
	if err := live.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := replay.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("live store != replay store\n--- live ---\n%s\n--- replay ---\n%s", a.String(), b.String())
	}
	ja, _ := json.Marshal(BuildReport(live))
	jb, _ := json.Marshal(BuildReport(replay))
	if !bytes.Equal(ja, jb) {
		t.Fatal("JSON reports diverged between live and replay")
	}
}

// TestSamplingKeepsEveryIncidentAndSlowTrace checks the acceptance bar: at
// a 10% normal-traffic rate, every error, degraded, slow and lifecycle
// trace survives sampling, and their exemplar links resolve.
func TestSamplingKeepsEveryIncidentAndSlowTrace(t *testing.T) {
	var jsonl bytes.Buffer
	sink := obs.NewSpanSink(8192)
	sink.SetWriter(&jsonl)
	sink.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.1, Seed: 1}))
	store := New(Config{BucketSeconds: 1, Buckets: 120})
	ing := NewIngester(store, nil)
	sink.AttachSampled(ing)

	for i := 0; i < 120; i++ {
		sink.EmitBatch(buildTrace(i))
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	retained := map[uint64]bool{}
	for _, r := range recs {
		retained[r.Trace] = true
	}
	for i := 0; i < 120; i++ {
		dur, errAttr, kind := traceSpec(i)
		mustKeep := errAttr || kind != "request" || dur >= obs.DefaultSlowSeconds || i%13 == 2
		if mustKeep && !retained[uint64(1+i)] {
			t.Fatalf("trace %d (dur=%v err=%v kind=%s) sampled out", 1+i, dur, errAttr, kind)
		}
	}
	// Exemplar link works: a tail exemplar resolves to a retained trace.
	for _, shard := range []string{"shard-a", "shard-b"} {
		e, ok := store.ExemplarNear(SeriesStage, 0.5, "kind", "request", "shard", shard)
		if !ok || !retained[e.Trace] {
			t.Fatalf("%s: tail exemplar %+v not retained", shard, e)
		}
	}
}

// TestEventSpansOnlyAddTheirOwnSeries pins "no kind collision" for the store:
// interleaving the zero-duration event kinds (each its own root trace, as
// emitted) through the recorded stream adds lifecycle/stage series labelled
// with those kinds and changes nothing else — every other series and every
// recording rule replays byte-identically.
func TestEventSpansOnlyAddTheirOwnSeries(t *testing.T) {
	eventKinds := []string{"voter_skip", "rejuvenation_trigger", "compromise",
		"perception_skip", "collision", "run_end", "petri_run_end"}
	replay := func(recs []obs.SpanRecord) *Report {
		store := New(Config{BucketSeconds: 1, Buckets: 120})
		rules := NewRules(store, 1, DefaultServingRules())
		Replay(recs, NewIngester(store, rules))
		return BuildReport(store)
	}
	var mixed []obs.SpanRecord
	for i := 0; i < 120; i++ {
		tr := buildTrace(i)
		mixed = append(mixed, tr...)
		if i%5 == 0 {
			at := tr[len(tr)-1].End
			mixed = append(mixed, obs.SpanRecord{Trace: uint64(5000 + i), ID: uint64(50000 + i),
				Kind: eventKinds[(i/5)%len(eventKinds)], Start: at, End: at,
				Attrs: map[string]any{"version": "v0"}})
		}
	}
	want := replay(demoSpans())
	got := replay(mixed)
	kept := got.Series[:0]
	added := 0
	for _, sv := range got.Series {
		isEvent := false
		for _, kind := range eventKinds {
			isEvent = isEvent || strings.Contains(sv.Labels, `kind="`+kind+`"`)
		}
		if isEvent {
			added++
			continue
		}
		kept = append(kept, sv)
	}
	got.Series = kept
	if added != 2*len(eventKinds) {
		t.Errorf("%d event-kind series, want a lifecycle count and a stage histogram per kind (%d)", added, 2*len(eventKinds))
	}
	ja, _ := json.Marshal(want)
	jb, _ := json.Marshal(got)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("event spans moved existing series or rules:\n%s\nvs\n%s", jb, ja)
	}
}
