package tsdb

import (
	"bytes"
	"strings"
	"testing"

	"mvml/internal/obs"
)

func TestStoreRateAndGaugeBuckets(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 10})
	s.Add("req", 0.2, 1, "shard", "a")
	s.Add("req", 0.9, 1, "shard", "a")
	s.Add("req", 1.1, 1, "shard", "a")
	if got := s.SumOver("req", 0, 0.99, "shard", "a"); got != 2 {
		t.Fatalf("bucket 0 sum = %v, want 2", got)
	}
	if got := s.SumOver("req", 0, 2, "shard", "a"); got != 3 {
		t.Fatalf("window sum = %v, want 3", got)
	}
	if got := s.RateOver("req", 0, 3, "shard", "a"); got != 1 {
		t.Fatalf("rate = %v, want 1", got)
	}

	s.Set("depth", 1.5, 7)
	s.Set("depth", 1.2, 4) // earlier write in the same bucket loses
	if v, ok := s.LastValue("depth"); !ok || v != 7 {
		t.Fatalf("LastValue = %v,%v want 7,true", v, ok)
	}
	s.Set("depth", 5.0, 2)
	if v, _ := s.LastValue("depth"); v != 2 {
		t.Fatalf("LastValue after later bucket = %v, want 2", v)
	}
}

func TestStoreRetentionEviction(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 4})
	for i := 0; i < 10; i++ {
		s.Add("req", float64(i)+0.5, 1)
	}
	// Buckets 0..5 have been recycled; only 6..9 remain.
	if got := s.SumOver("req", 0, 20); got != 4 {
		t.Fatalf("retained sum = %v, want 4", got)
	}
	if got := s.SumOver("req", 0, 5.99); got != 0 {
		t.Fatalf("evicted window sum = %v, want 0", got)
	}
}

func TestStoreHistogramQuantileAndExemplars(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 60})
	for i := 0; i < 99; i++ {
		s.ObserveEx("lat", float64(i%10)+0.5, 0.01, uint64(100+i), "kind", "request")
	}
	s.ObserveEx("lat", 5.5, 0.9, 7777, "kind", "request")
	q, ok := s.QuantileOver("lat", 0, 60, 0.5, "kind", "request")
	if !ok || q > 0.05 {
		t.Fatalf("p50 = %v,%v", q, ok)
	}
	q99, ok := s.QuantileOver("lat", 0, 60, 0.999, "kind", "request")
	if !ok || q99 < 0.5 {
		t.Fatalf("p99.9 = %v, want near 0.9+", q99)
	}
	// The slow observation's exemplar is retrievable near its value.
	e, ok := s.ExemplarNear("lat", 0.9, "kind", "request")
	if !ok || e.Trace != 7777 {
		t.Fatalf("ExemplarNear(0.9) = %+v,%v want trace 7777", e, ok)
	}
	// And a mid-range lookup still resolves to some exemplar.
	if _, ok := s.ExemplarNear("lat", 0.05, "kind", "request"); !ok {
		t.Fatal("no exemplar near 0.05")
	}
	if got := len(s.Exemplars("lat", "kind", "request")); got < 2 {
		t.Fatalf("exemplar count = %d, want >= 2", got)
	}
}

func TestStoreFamilyQueriesAcrossShards(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 60})
	s.Add(SeriesRequests, 1, 5, "kind", "request", "shard", "a")
	s.Add(SeriesRequests, 1, 7, "kind", "request", "shard", "b")
	s.Observe(SeriesStage, 1, 0.1, "kind", "request", "shard", "a")
	s.Observe(SeriesStage, 1, 0.3, "kind", "request", "shard", "b")
	s.Observe(SeriesStage, 1, 9.0, "kind", "rejuvenation", "shard", "")
	if got := s.FamilySumOver(SeriesRequests, 0, 2); got != 12 {
		t.Fatalf("family sum = %v, want 12", got)
	}
	q, ok := s.FamilyQuantileOver(SeriesStage, 0, 2, 0.99, "kind", "request")
	if !ok || q > 1 {
		t.Fatalf("family p99 = %v,%v — rejuvenation series must be excluded", q, ok)
	}
	s.Set(SeriesQueue, 1, 3, "shard", "a")
	s.Set(SeriesQueue, 1, 4, "shard", "b")
	if sum, ok := s.FamilyLastSum(SeriesQueue); !ok || sum != 7 {
		t.Fatalf("FamilyLastSum = %v,%v want 7", sum, ok)
	}
}

func TestStoreSeriesOverflowCounted(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 4, MaxSeries: 2})
	reg := obs.NewRegistry()
	s.Register(reg)
	s.Add("a", 1, 1)
	s.Add("b", 1, 1)
	s.Add("c", 1, 1) // refused
	if got := reg.Counter(MetricOverflow).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricOverflow, got)
	}
	if got := reg.Gauge(MetricSeries).Value(); got != 2 {
		t.Fatalf("%s = %v, want 2", MetricSeries, got)
	}
}

func TestStoreExpositionByteStable(t *testing.T) {
	s := New(Config{BucketSeconds: 1, Buckets: 60})
	reg := obs.NewRegistry()
	s.Register(reg)
	rules := NewRules(s, 1, DefaultServingRules())
	rules.Register(reg)
	ing := NewIngester(s, rules)
	Replay(demoSpans(), ing)

	var a, b bytes.Buffer
	if err := s.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("store exposition not byte-stable across repeated writes")
	}
	text := a.String()
	for _, want := range []string{SeriesRequests, SeriesStage, "# {trace=\"", RuleP99Latency} {
		if !strings.Contains(text, want) {
			t.Fatalf("store exposition missing %q:\n%s", want, text)
		}
	}

	var ra, rb bytes.Buffer
	if err := reg.WritePrometheus(&ra); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Fatal("registry exposition not byte-stable")
	}
	rtext := ra.String()
	for _, want := range []string{MetricSamples, MetricSeries, MetricRuleValue} {
		if !strings.Contains(rtext, want) {
			t.Fatalf("registry exposition missing %q", want)
		}
	}
}
