package stats

import (
	"math"
	"sort"
	"testing"
	"time"
)

// TestNearestRankExactSmallSets pins the nearest-rank definition on small
// sets where the expected order statistic can be read off by hand.
func TestNearestRankExactSmallSets(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{7}, 0, 7},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 1, 7},
		{[]float64{1, 2}, 0.5, 1},  // ⌈0.5·2⌉ = 1st element
		{[]float64{1, 2}, 0.51, 2}, // ⌈1.02⌉ = 2nd element
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4, 5}, 0.99, 5},
		{nil, 0.5, 0},
		{[]float64{1, 2, 3}, -0.5, 1}, // clamped
		{[]float64{1, 2, 3}, 1.5, 3},  // clamped
	}
	for _, c := range cases {
		if got := NearestRank(c.sorted, c.q); got != c.want {
			t.Errorf("NearestRank(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}

// TestNearestRankProperties checks, over deterministic pseudo-random
// samples, that the estimate is always an element of the sample and that it
// is monotone non-decreasing in q.
func TestNearestRankProperties(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 { // xorshift64*, deterministic across runs
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64(state*0x2545f4914f6cdd1d>>11) / (1 << 53)
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(next()*200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = next() * 1e3
		}
		sort.Float64s(xs)
		member := map[float64]bool{}
		for _, x := range xs {
			member[x] = true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := NearestRank(xs, q)
			if !member[v] {
				t.Fatalf("trial %d: NearestRank(q=%v) = %v not in sample", trial, q, v)
			}
			if v < prev {
				t.Fatalf("trial %d: NearestRank not monotone at q=%v: %v < %v", trial, q, v, prev)
			}
			prev = v
		}
	}
}

// TestNearestRankGenericTypes exercises the generic signature with the
// integer-backed time.Duration used by the serve load generator.
func TestNearestRankGenericTypes(t *testing.T) {
	ds := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if got := NearestRank(ds, 0.5); got != 2*time.Millisecond {
		t.Fatalf("duration median: %v", got)
	}
	is := []int{3, 5, 9}
	if got := NearestRank(is, 1); got != 9 {
		t.Fatalf("int max: %v", got)
	}
}

// TestBucketQuantileExact pins interpolation on hand-checkable bucket
// layouts.
func TestBucketQuantileExact(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 observations uniformly in the (1,2] bucket.
	counts := []uint64{0, 10, 0, 0}
	if got := BucketQuantile(bounds, counts, 0.5); got != 1.5 {
		t.Fatalf("mid-bucket median: %v", got)
	}
	if got := BucketQuantile(bounds, counts, 1); got != 2 {
		t.Fatalf("bucket upper edge: %v", got)
	}
	// Overflow-only sample: attributed to the largest finite bound.
	if got := BucketQuantile(bounds, []uint64{0, 0, 0, 7}, 0.5); got != 4 {
		t.Fatalf("overflow attribution: %v", got)
	}
	// Empty sample.
	if got := BucketQuantile(bounds, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Fatalf("empty sample: %v", got)
	}
	// No finite bounds at all.
	if got := BucketQuantile(nil, []uint64{5}, 0.5); got != 0 {
		t.Fatalf("no bounds: %v", got)
	}
	// The median is the upper edge of (-531.78571428571433, -100], where
	// lower + (upper-lower)·1 rounds to -99.99999999999994: the estimate
	// stays inside the bucket, at or below the overflow's -100.
	neg := []float64{-2258.9285714285716, -531.78571428571433, -100}
	if got := BucketQuantile(neg, []uint64{1, 0, 3, 4}, 0.5); got != -100 {
		t.Fatalf("bucket upper edge by rounding: %v, want -100", got)
	}
}

// TestBucketQuantileMonotone checks monotonicity in q and range containment
// for a fixed multi-bucket sample.
func TestBucketQuantileMonotone(t *testing.T) {
	bounds := []float64{0.5, 1, 2, 4, 8}
	counts := []uint64{3, 0, 7, 11, 2, 1}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.005 {
		v := BucketQuantile(bounds, counts, q)
		if v < prev {
			t.Fatalf("BucketQuantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		if v < 0 || v > bounds[len(bounds)-1] {
			t.Fatalf("BucketQuantile(q=%v) = %v outside [0, %v]", q, v, bounds[len(bounds)-1])
		}
		prev = v
	}
}
