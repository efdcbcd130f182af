package obs

import (
	"math"
	"testing"

	"mvml/internal/xrand"
)

func TestNewHistogramCanonicalisesBounds(t *testing.T) {
	h := NewHistogram([]float64{5, 1, 3, 1, math.Inf(1), math.NaN(), 3})
	want := []float64{1, 3, 5}
	got := h.Bounds()
	if len(got) != len(want) {
		t.Fatalf("bounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds %v, want %v", got, want)
		}
	}
	if n := len(h.BucketCounts()); n != len(want)+1 {
		t.Fatalf("%d buckets, want %d (incl. +Inf)", n, len(want)+1)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// Upper bounds are inclusive: 1 -> bucket le=1, 2 -> le=2, 4 -> le=4.
	want := []uint64{2, 2, 2, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts %v, want %v", got, want)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count %d, want 7", h.Count())
	}
	if math.Abs(h.Sum()-112) > 1e-12 {
		t.Fatalf("sum %v, want 112", h.Sum())
	}
	if math.Abs(h.Mean()-16) > 1e-12 {
		t.Fatalf("mean %v, want 16", h.Mean())
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// 10k uniform draws over [0, 1) against fine linear buckets: the
	// interpolated quantiles must land close to the true ones.
	h := NewHistogram(LinearBuckets(0.01, 0.01, 100))
	rng := xrand.New(7)
	for i := 0; i < 10_000; i++ {
		h.Observe(rng.Float64())
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-q) > 0.02 {
			t.Errorf("uniform q%.2f = %v, want within 0.02", q, got)
		}
	}
}

func TestHistogramQuantileExponential(t *testing.T) {
	// Exponential(rate=1): the true q-quantile is -ln(1-q).
	h := NewHistogram(ExpBuckets(1e-3, 1.2, 60))
	rng := xrand.New(11)
	for i := 0; i < 20_000; i++ {
		h.Observe(rng.Exp(1))
	}
	for _, q := range []float64{0.5, 0.9} {
		want := -math.Log(1 - q)
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("exp q%.2f = %v, want ~%v", q, got, want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile should be 0")
	}
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// All mass in the +Inf overflow bucket: the bucket estimate (largest
	// finite bound, 2) is clamped up into the observed range [50, 50].
	h.Observe(50)
	if got := h.Quantile(0.99); got != 50 {
		t.Errorf("overflow quantile %v, want 50 (clamped to observed min)", got)
	}
	// Out-of-range q is clamped.
	if got := h.Quantile(-1); got != 50 {
		t.Errorf("q=-1 -> %v, want 50", got)
	}
	if got := h.Quantile(2); got != 50 {
		t.Errorf("q=2 -> %v, want 50", got)
	}
	if lo, hi := math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load()); lo != 50 || hi != 50 {
		t.Errorf("min/max = %v/%v, want 50/50", lo, hi)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := ExpBuckets(1, 2, 3); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("ExpBuckets = %v", got)
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("invalid ExpBuckets args should yield nil")
	}
	if got := LinearBuckets(1, 0.5, 3); len(got) != 3 || got[2] != 2 {
		t.Errorf("LinearBuckets = %v", got)
	}
	if b := LatencyBuckets(); len(b) != 21 || b[0] != 1e-6 {
		t.Errorf("LatencyBuckets = %v", b)
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	// Every nil handle must be safe and inert — this is the disabled path
	// of the whole instrumentation layer.
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.Help("x", "help")
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 ||
		h.Bounds() != nil || h.BucketCounts() != nil {
		t.Fatal("nil histogram must be inert")
	}
	var sink *SpanSink
	if sink.Emit(sink.NewTraceID(), 0, "x", 0, 0, nil) != 0 {
		t.Fatal("nil sink must hand out zero ids")
	}
	if sink.Spans() != nil || sink.Published() != 0 || sink.Dropped() != 0 {
		t.Fatal("nil sink must be inert")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal("nil sink Flush should be a no-op")
	}
	var rt *Runtime
	if rt.Metrics() != nil || rt.Spans() != nil {
		t.Fatal("nil runtime must expose nil handles")
	}
}
