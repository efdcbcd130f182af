package tsdb

import (
	"sync"
	"testing"
)

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
