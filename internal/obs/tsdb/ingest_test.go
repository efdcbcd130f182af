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
	Replay(demoSpans(), NewIngester(s, nil))

	const horizon = 10
	reqA := s.SumOverLabels(SeriesRequests, `kind="request",shard="shard-a"`, 0, horizon)
	reqB := s.SumOverLabels(SeriesRequests, `kind="request",shard="shard-b"`, 0, horizon)
	if reqA+reqB != 119 { // 120 traces minus the rejuvenation
		t.Fatalf("requests a+b = %v+%v, want 119", reqA, reqB)
	}
	if errs := s.FamilySumOver(SeriesErrors, 0, horizon); errs == 0 {
		t.Fatal("no errors ingested")
	}
	stages := map[string]SeriesView{}
	for _, sv := range s.Snapshot() {
		if sv.Name == SeriesStage {
			stages[sv.Labels] = sv
		}
	}
	if sv := stages[`kind="rejuvenation",shard=""`]; sv.Count != 1 {
		t.Fatalf("rejuvenation stage observations = %d, want 1", sv.Count)
	}
	if sv := stages[`kind="forward",shard="shard-a",version="v0"`]; sv.Count == 0 {
		t.Fatal("no per-version forward latency series")
	}
	// Root request latency histograms carry trace exemplars.
	if sv := stages[`kind="request",shard="shard-a"`]; len(sv.Exemplars) == 0 {
		t.Fatal("no exemplars on request latency")
	}
	// A slow trace's exemplar resolves near the tail.
	if e, ok := s.ExemplarNearLabels(SeriesStage, `kind="request",shard="shard-a"`, 0.5); !ok || e.Trace == 0 {
		t.Fatalf("tail exemplar = %+v,%v", e, ok)
	}
}

// TestLiveEqualsReplay drives a real sink (ingester attached, JSONL export
// on) and then replays the export into a second store: their snapshots must
// match byte for byte.
func TestLiveEqualsReplay(t *testing.T) {
	var jsonl bytes.Buffer
	sink := obs.NewSpanSink(4096)
	sink.SetWriter(&jsonl)

	live := New(Config{BucketSeconds: 1, Buckets: 120})
	sink.Attach(NewIngester(live, nil))

	for i := 0; i < 120; i++ {
		for _, r := range buildTrace(i) {
			sink.Emit(r.Trace, r.Parent, r.Kind, r.Start, r.End, r.Attrs)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadSpans(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || uint64(len(recs)) != sink.Published() {
		t.Fatalf("export holds %d records, sink published %d", len(recs), sink.Published())
	}

	replay := New(Config{BucketSeconds: 1, Buckets: 120})
	Replay(recs, NewIngester(replay, nil))

	ja, _ := json.Marshal(live.Snapshot())
	jb, _ := json.Marshal(replay.Snapshot())
	if !bytes.Equal(ja, jb) {
		t.Fatalf("live store != replay store\n--- live ---\n%s\n--- replay ---\n%s", ja, jb)
	}
}

// TestEventSpansOnlyAddTheirOwnSeries pins "no kind collision" for the store:
// interleaving the zero-duration event kinds (each its own root trace, as
// emitted) through the recorded stream adds one stage histogram per event
// kind and changes nothing else — every other series replays
// byte-identically.
func TestEventSpansOnlyAddTheirOwnSeries(t *testing.T) {
	eventKinds := []string{"voter_skip", "rejuvenation_trigger", "compromise",
		"perception_skip", "collision", "run_end", "petri_run_end"}
	replay := func(recs []obs.SpanRecord) []SeriesView {
		store := New(Config{BucketSeconds: 1, Buckets: 120})
		Replay(recs, NewIngester(store, nil))
		return store.Snapshot()
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
	var kept []SeriesView
	added := 0
	for _, sv := range replay(mixed) {
		isEvent := false
		for _, kind := range eventKinds {
			isEvent = isEvent || strings.Contains(sv.Labels, `kind="`+kind+`"`)
		}
		if !isEvent {
			kept = append(kept, sv)
			continue
		}
		added++
		if sv.Name != SeriesStage {
			t.Errorf("event span wrote %s{%s}, want only its stage histogram", sv.Name, sv.Labels)
		}
	}
	if added != len(eventKinds) {
		t.Errorf("%d event-kind series, want one stage histogram per kind (%d)", added, len(eventKinds))
	}
	ja, _ := json.Marshal(want)
	jb, _ := json.Marshal(kept)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("event spans moved existing series:\n%s\nvs\n%s", jb, ja)
	}
}
