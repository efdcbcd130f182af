package stats

import (
	"cmp"
	"math"
)

// NearestRank returns the q-quantile of sorted (ascending order) using the
// nearest-rank definition: the smallest element whose cumulative rank
// reaches ⌈q·n⌉. It is exact — no interpolation — which makes it the right
// choice when the full sample is in memory (trace summaries, load-test
// latency reports). q outside [0,1] clamps to the extremes; an empty slice
// yields the zero value.
func NearestRank[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// BucketQuantile estimates the q-quantile of a bucketed sample by linear
// interpolation within the containing bucket — the same scheme Prometheus'
// histogram_quantile uses. bounds are sorted finite bucket upper bounds and
// counts holds one non-cumulative count per bound plus a final overflow
// (+Inf) bucket, so len(counts) == len(bounds)+1. The first bucket is
// assumed to start at 0 (or at its own bound when that bound is negative);
// overflow observations are attributed to the largest finite bound, the
// best available estimate. Returns 0 for an empty sample. Callers that
// track the observed min/max should clamp the estimate into that range —
// interpolation alone can overshoot when observations occupy only part of
// a bucket.
func BucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no finite upper edge to interpolate against.
			break
		}
		upper := bounds[i]
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		} else if upper < 0 {
			lower = upper
		}
		// Rounding can carry the interpolation past the bucket's upper edge
		// (at rank == cum it lands on lower + (upper-lower), which need not
		// equal upper), above the next bucket's estimates: clamp it back.
		est := lower + (upper-lower)*(rank-prev)/float64(c)
		return math.Max(lower, math.Min(upper, est))
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
