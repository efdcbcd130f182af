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

// TestConcurrentScrapeIngestAndRules hammers one store from three sides at
// once — span ingestion, registry scraping, rule evaluation — and then
// checks it still serves consistent queries. Run with -race in CI.
func TestConcurrentScrapeIngestAndRules(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 600})
	reg := obs.NewRegistry()
	s.Register(reg)
	rules := NewRules(s, 1, DefaultServingRules())
	rules.Register(reg)
	ing := NewIngester(s, rules)
	sc := NewScraper(s)
	c := reg.Counter("mv_demo_total")

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		Replay(demoSpans(), ing)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Add(3)
			if err := sc.ScrapeRegistry(reg, float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			rules.Advance(float64(i) / 20)
			s.Snapshot()
		}
	}()
	wg.Wait()

	horizon := ing.MaxT() + 1
	if got := s.FamilySumOver(SeriesRequests, 0, horizon); got != 119 {
		t.Fatalf("requests after concurrent load = %v, want 119", got)
	}
	if got := s.SumOver("mv_demo_total", 0, 100); got != 3*49 {
		t.Fatalf("scraped counter = %v, want %v", got, 3*49)
	}
}
