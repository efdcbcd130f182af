package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryHandlesAreShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "route", "1")
	b := r.Counter("hits_total", "route", "1")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("hits_total", "route", "2")
	if a == other {
		t.Fatal("different labels must return different counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("value %d, want 3", a.Value())
	}
	// Label order must not matter: the key is canonicalised.
	x := r.Gauge("temp", "b", "2", "a", "1")
	y := r.Gauge("temp", "a", "1", "b", "2")
	if x != y {
		t.Fatal("label order must not create distinct series")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge type conflict")
		}
	}()
	r.Gauge("m")
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd label list")
		}
	}()
	r.Counter("m", "key-without-value")
}

// Regression: Help() pre-creates an untyped family; the first metric call
// must adopt its type instead of reporting a conflict.
func TestHelpBeforeFirstMetric(t *testing.T) {
	r := NewRegistry()
	r.Help("requests_total", "Total requests.")
	c := r.Counter("requests_total")
	if c == nil {
		t.Fatal("counter after Help returned nil")
	}
	c.Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != "requests_total" || *snap[0].Value != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Help after the fact updates the family in place.
	r.Help("requests_total", "Updated.")
	fams := r.snapshot()
	if len(fams) != 1 || fams[0].help != "Updated." {
		t.Fatalf("help not updated: %+v", fams)
	}
}

func TestHistogramFirstBucketsWin(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", []float64{1, 2})
	h2 := r.Histogram("lat", []float64{10, 20, 30})
	if h1 != h2 {
		t.Fatal("same series must share one histogram")
	}
	if got := len(h1.Bounds()); got != 2 {
		t.Fatalf("bounds %v, want the first registration's", h1.Bounds())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	// Exercised under `go test -race`: concurrent handle resolution,
	// observation, and exposition must be race-free.
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4)
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", "worker", label).Inc()
				r.Gauge("depth", "worker", label).Set(float64(i))
				r.Histogram("lat", LatencyBuckets(), "worker", label).Observe(float64(i) / iters)
				if i%500 == 0 {
					r.Help("ops_total", "Concurrent ops.")
				}
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(discard{})
			_ = r.Snapshot()
		}
	}()
	wg.Wait()

	var total uint64
	for _, m := range r.Snapshot() {
		if m.Name == "ops_total" {
			total += uint64(*m.Value)
		}
	}
	if total != workers*iters {
		t.Fatalf("ops_total %d, want %d", total, workers*iters)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCounterConcurrentInc(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter %d, want 4000", c.Value())
	}
}
