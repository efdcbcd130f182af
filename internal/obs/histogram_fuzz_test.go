package obs

// Fuzz coverage for the histogram quantile estimator. The invariants are the
// ones expose.go relies on when it prints P50/P90/P99 summaries: estimates
// stay inside the observed value range and respect quantile ordering, for
// arbitrary bucket layouts and observation streams.

import (
	"math"
	"testing"
)

// fuzzValues decodes an arbitrary byte string into a bounded list of finite
// float64s, mixing magnitudes so that buckets under-, over- and exactly
// cover the observations.
func fuzzValues(data []byte) []float64 {
	vals := make([]float64, 0, len(data))
	for i, b := range data {
		v := float64(b) - 128
		switch i % 3 {
		case 1:
			v /= 64
		case 2:
			v *= 32
		}
		vals = append(vals, v)
		if len(vals) == 256 {
			break
		}
	}
	return vals
}

func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{0}, 1.0, 0.5)
	f.Add([]byte{1, 2, 3, 200, 255}, 0.25, 0.9)
	f.Add([]byte{128, 128, 128}, -4.0, 0.0)
	f.Add([]byte{7, 99, 250, 13, 13, 13}, 10.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, width, q float64) {
		if math.IsNaN(width) || math.IsInf(width, 0) || math.Abs(width) > 1e6 {
			t.Skip("degenerate bucket width")
		}
		vals := fuzzValues(data)
		if len(vals) == 0 {
			t.Skip("no observations")
		}
		h := NewHistogram(LinearBuckets(-100, width, 40))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			h.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if h.Count() != uint64(len(vals)) {
			t.Fatalf("count %d, want %d", h.Count(), len(vals))
		}
		if min, max := math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load()); min != lo || max != hi {
			t.Fatalf("min/max = %v/%v, want %v/%v", min, max, lo, hi)
		}

		// Any quantile estimate must land inside the observed range.
		got := h.Quantile(q)
		if math.IsNaN(got) || got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", q, got, lo, hi)
		}

		// Quantiles must be monotone non-decreasing in q.
		prev := math.Inf(-1)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(p)
			if cur < prev {
				t.Fatalf("Quantile not monotone: q=%v -> %v after %v", p, cur, prev)
			}
			prev = cur
		}
	})
}
