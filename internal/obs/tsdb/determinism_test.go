package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mvml/internal/obs"
)

// traceSetRecorder collects retained trace ids from the sampled firehose.
type traceSetRecorder struct {
	mu  sync.Mutex
	ids map[uint64]bool
}

func (r *traceSetRecorder) ObserveSpans(recs []obs.SpanRecord, _ float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		r.ids[rec.Trace] = true
	}
}

func (r *traceSetRecorder) sorted() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, 0, len(r.ids))
	for id := range r.ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// retainedSet publishes the 120-trace demo stream through a sink with the
// given worker count and returns the sorted retained trace ids.
func retainedSet(t *testing.T, workers int) []uint64 {
	t.Helper()
	sink := obs.NewSpanSink(8192)
	sink.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.1, Seed: 1}))
	rec := &traceSetRecorder{ids: make(map[uint64]bool)}
	sink.AttachSampled(rec)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 120; i += workers {
				sink.EmitBatch(buildTrace(i))
			}
		}(w)
	}
	wg.Wait()
	return rec.sorted()
}

// TestSamplingDeterminismGolden pins the retained-trace set for the demo
// stream at rate 0.1, seed 1: identical across worker counts 1/4/8 and
// across releases (golden file; refresh with UPDATE_GOLDEN=1).
func TestSamplingDeterminismGolden(t *testing.T) {
	base := retainedSet(t, 1)
	for _, workers := range []int{4, 8} {
		got := retainedSet(t, workers)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("retained set differs at %d workers:\n1: %v\n%d: %v",
				workers, base, workers, got)
		}
	}

	var b strings.Builder
	for _, id := range base {
		fmt.Fprintf(&b, "%d\n", id)
	}
	path := filepath.Join("testdata", "retained_rate10_seed1.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("retained-trace set drifted from golden (UPDATE_GOLDEN=1 to refresh)\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestConcurrentIngestAndSnapshot feeds one ingester from four publishers
// at once while a reader snapshots and queries the store, then checks that
// nothing was lost. Run with -race in CI.
func TestConcurrentIngestAndSnapshot(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 600})
	ing := NewIngester(s, nil)

	const publishers = 4
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 120; i += publishers {
				ing.ObserveSpans(buildTrace(i), 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Snapshot()
			s.FamilySumOver(SeriesRequests, 0, 10)
			for _, ls := range s.LabelSets(SeriesStage) {
				s.ExemplarNearLabels(SeriesStage, ls, 0.5)
			}
		}
	}()
	wg.Wait()
	<-done

	if got := s.FamilySumOver(SeriesRequests, 0, 10); got != 119 {
		t.Fatalf("requests after concurrent load = %v, want 119", got)
	}
	var observed uint64
	for _, sv := range s.Snapshot() {
		if sv.Name == SeriesStage {
			observed += sv.Count
		}
	}
	if want := uint64(len(demoSpans())); observed != want {
		t.Fatalf("stage observations = %d, want one per span (%d)", observed, want)
	}
}
