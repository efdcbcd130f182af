package nn

import (
	"time"

	"mvml/internal/tensor"
)

// ForwardProfiler receives opt-in per-layer observations from the arena
// inference path: wall time per layer dispatch and the shape of every GEMM a
// layer issues. Implementations must be safe for use from the single
// goroutine that owns the arena (the same ownership rule as the arena
// itself) and must not retain the layer label strings beyond the call.
//
// Profiling is observational only — it never changes what a forward pass
// computes — and costs nothing when InferenceArena.Profiler is nil.
type ForwardProfiler interface {
	// ObserveLayer reports one layer dispatch: the layer's name, the wall
	// seconds the dispatch took, and the batch size it processed.
	ObserveLayer(layer string, seconds float64, batch int)
	// ObserveGemm reports one GEMM issued while the named layer was running,
	// as its (m, n, k) shape: an (m×k)·(k×n) product writing m×n outputs.
	ObserveGemm(layer string, m, n, k int)
}

// profiledForward wraps one arena layer dispatch with timing and labels the
// arena so nested GEMM observations attribute to this layer. The label is
// saved and restored around the call because residual blocks dispatch their
// body layers recursively through the same arena. A fused ReLU's or pool's
// time is in its producer's; each is reported with zero seconds, so every
// layer still shows up.
func profiledForward(l Layer, x *tensor.Tensor, ar *InferenceArena, relu *ReLU, pool *MaxPool2D) (*tensor.Tensor, error) {
	prev := ar.profLayer
	ar.profLayer = l.Name()
	start := time.Now()
	y, err := dispatch(l, x, ar, relu, pool)
	ar.Profiler.ObserveLayer(ar.profLayer, time.Since(start).Seconds(), x.Shape[0])
	if relu != nil {
		ar.Profiler.ObserveLayer(relu.Name(), 0, x.Shape[0])
	}
	if pool != nil {
		ar.Profiler.ObserveLayer(pool.Name(), 0, x.Shape[0])
	}
	ar.profLayer = prev
	return y, err
}

// noteGemm forwards one GEMM shape to the arena's profiler, attributed to
// the layer currently dispatched through profiledForward. A nil profiler
// makes this a single branch on the hot path.
func (a *InferenceArena) noteGemm(m, n, k int) {
	if a == nil || a.Profiler == nil {
		return
	}
	a.Profiler.ObserveGemm(a.profLayer, m, n, k)
}
