package obs

import (
	"math"
	"sort"
	"sync/atomic"

	"mvml/internal/stats"
)

// Histogram is a streaming histogram over fixed bucket upper bounds, safe
// for concurrent observation. Observations are lock-free: each falls into
// the first bucket whose upper bound is >= the value (the last, implicit
// +Inf bucket catches the rest), and a running sum/count supports the mean.
// Quantiles are estimated by linear interpolation inside the containing
// bucket, the same scheme Prometheus' histogram_quantile uses.
//
// A nil *Histogram is a valid no-op handle.
type Histogram struct {
	bounds []float64       // sorted, finite upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits; +Inf until the first observation
	max    atomic.Uint64 // float64 bits; -Inf until the first observation
}

// NewHistogram builds a histogram over the given finite upper bounds. The
// bounds are copied, sorted and deduplicated; non-finite bounds are dropped
// (the +Inf overflow bucket always exists). An empty bound list yields a
// single-bucket histogram that still tracks count/sum/mean.
func NewHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	h := &Histogram{bounds: dedup, counts: make([]atomic.Uint64, len(dedup)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// LatencyBuckets returns exponential bounds from 1 µs to ~2 s, matched to
// the serving runtime's stage timings, from one vote to a whole request.
func LatencyBuckets() []float64 {
	return ExpBuckets(1e-6, 2, 21)
}

// ExpBuckets returns n bounds starting at start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket with bound >= v; len(bounds) is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.min.Load()
		if !(v < math.Float64frombits(old)) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if !(v > math.Float64frombits(old)) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the finite bucket upper bounds (shared slice; do not
// mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of per-bucket (non-cumulative) counts,
// with the overflow (+Inf) bucket last.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) via stats.BucketQuantile
// (linear interpolation within the containing bucket). The estimate is then
// clamped into [Min(), Max()], so a quantile can never lie outside the range
// actually observed — bucket interpolation alone can overshoot when the
// observations occupy only part of a bucket. Returns 0 when the histogram is
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.BucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	est := stats.BucketQuantile(h.bounds, counts, q)
	lo := math.Float64frombits(h.min.Load())
	hi := math.Float64frombits(h.max.Load())
	if lo <= hi { // at least one comparable observation
		est = math.Max(lo, math.Min(hi, est))
	}
	return est
}
