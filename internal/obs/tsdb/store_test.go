package tsdb

import (
	"fmt"
	"testing"
)

func TestStoreRateBuckets(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 10})
	s.Add("req", 0.2, 1, "shard", "a")
	s.Add("req", 0.9, 1, "shard", "a")
	s.Add("req", 1.1, 1, "shard", "a")
	if got := s.SumOverLabels("req", `shard="a"`, 0, 0.99); got != 2 {
		t.Fatalf("bucket 0 sum = %v, want 2", got)
	}
	if got := s.SumOverLabels("req", `shard="a"`, 0, 2); got != 3 {
		t.Fatalf("window sum = %v, want 3", got)
	}
	if got := s.LabelSets("req"); len(got) != 1 || got[0] != `shard="a"` {
		t.Fatalf("LabelSets = %q, want the one canonical set", got)
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "rate" || len(snap[0].Points) != 2 ||
		snap[0].Points[0] != (Point{T: 0, V: 2}) || snap[0].Points[1] != (Point{T: 1, V: 1}) {
		t.Fatalf("Snapshot = %+v, want points (0,2) and (1,1)", snap)
	}
}

func TestStoreRetentionEviction(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 4})
	for i := 0; i < 10; i++ {
		s.Add("req", float64(i)+0.5, 1)
	}
	// Buckets 0..5 have been recycled; only 6..9 remain.
	if got := s.SumOverLabels("req", "", 0, 20); got != 4 {
		t.Fatalf("retained sum = %v, want 4", got)
	}
	if got := s.SumOverLabels("req", "", 0, 5.99); got != 0 {
		t.Fatalf("evicted window sum = %v, want 0", got)
	}
	if got := len(s.Snapshot()[0].Points); got != 4 {
		t.Fatalf("snapshot holds %d points, want the 4 retained buckets", got)
	}
}

func TestStoreHistogramQuantileAndExemplars(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 60})
	for i := 0; i < 99; i++ {
		s.ObserveEx("lat", float64(i%10)+0.5, 0.01, uint64(100+i), "kind", "request")
	}
	s.ObserveEx("lat", 5.5, 0.9, 7777, "kind", "request")
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" || snap[0].Count != 100 {
		t.Fatalf("Snapshot = %+v, want one histogram of 100 observations", snap)
	}
	if p50 := snap[0].P50; p50 > 0.05 {
		t.Fatalf("p50 = %v, want the fast band", p50)
	}
	const labels = `kind="request"`
	// The slow observation's exemplar is retrievable near its value.
	e, ok := s.ExemplarNearLabels("lat", labels, 0.9)
	if !ok || e.Trace != 7777 {
		t.Fatalf("ExemplarNearLabels(0.9) = %+v,%v want trace 7777", e, ok)
	}
	// And a mid-range lookup still resolves to some exemplar.
	if _, ok := s.ExemplarNearLabels("lat", labels, 0.05); !ok {
		t.Fatal("no exemplar near 0.05")
	}
	if got := len(snap[0].Exemplars); got < 2 {
		t.Fatalf("exemplar count = %d, want >= 2", got)
	}
}

func TestStoreFamilyQueriesAcrossShards(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 60})
	s.Add(SeriesRequests, 1, 5, "kind", "request", "shard", "a")
	s.Add(SeriesRequests, 1, 7, "kind", "request", "shard", "b")
	s.Add(SeriesErrors, 1, 2, "kind", "request", "shard", "a")
	if got := s.FamilySumOver(SeriesRequests, 0, 2); got != 12 {
		t.Fatalf("family sum = %v, want 12", got)
	}
	if got := s.FamilySumOver(SeriesErrors, 0, 2); got != 2 {
		t.Fatalf("error family sum = %v, want 2 — other families must be excluded", got)
	}
}

// TestStoreSeriesBounded: writes that would create a series past the bound
// are dropped, and existing series keep accepting writes.
func TestStoreSeriesBounded(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 2})
	for i := 0; i <= maxSeries; i++ {
		s.Add("req", 1, 1, "shard", fmt.Sprint(i))
	}
	if got := len(s.LabelSets("req")); got != maxSeries {
		t.Fatalf("%d series, want the bound %d", got, maxSeries)
	}
	s.Add("req", 1, 1, "shard", "0")
	if got := s.FamilySumOver("req", 0, 2); got != maxSeries+1 {
		t.Fatalf("family sum = %v, want %d", got, maxSeries+1)
	}
}
