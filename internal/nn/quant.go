package nn

import (
	"errors"
	"fmt"

	"mvml/internal/tensor"
)

// QuantParams holds the per-layer activation scales of a calibrated int8
// inference configuration. Scales are keyed by layer identity, so they belong
// to the one network they were calibrated on; they are immutable after
// CalibrateInt8, so every arena that runs that network — a version's serving
// workers — shares them read-only.
//
// Weight scales are NOT stored here: they derive from the weights themselves
// and are recomputed whenever the arena repacks after a weight swap, so a
// compromised-then-rejuvenated layer is always quantized against its current
// weights.
type QuantParams struct {
	scales map[Layer]tensor.Int8Scale
}

// Scale returns the calibrated input-activation scale for l.
func (q *QuantParams) Scale(l Layer) (tensor.Int8Scale, bool) {
	if q == nil {
		return tensor.Int8Scale{}, false
	}
	s, ok := q.scales[l]
	return s, ok
}

// CalibrateInt8 runs the calibration set through the float32 arena path and
// records, for every Conv2D and Dense layer, the maximum absolute input
// activation observed (for convolutions the maximum is taken over the im2col
// column matrix, which contains exactly the values the quantized kernel will
// consume — padding zeros included). The symmetric scale mapping that maximum
// to ±127 becomes the layer's activation scale.
//
// The maximum over a set is independent of batch splits and visit order, so
// calibration is deterministic for a given network and sample set.
func CalibrateInt8(n *Network, samples []Sample, batchSize int) (*QuantParams, error) {
	if len(samples) == 0 {
		return nil, errors.New("nn: int8 calibration needs at least one sample")
	}
	if batchSize < 1 {
		batchSize = 32
	}
	maxAbs := make(map[Layer]float32)
	ar := NewInferenceArena()
	ar.observer = func(l Layer, x *tensor.Tensor) {
		switch l.(type) {
		case *Conv2D:
			// The conv kernel quantizes the column matrix, not x itself, but
			// im2col only rearranges (and zero-pads) x's values: max|cols| ==
			// max(max|x|, 0), and MaxAbs of a non-empty tensor is >= 0 already.
			if m := tensor.MaxAbs(x.Data); m > maxAbs[l] {
				maxAbs[l] = m
			}
		case *Dense:
			if m := tensor.MaxAbs(x.Data); m > maxAbs[l] {
				maxAbs[l] = m
			}
		}
	}
	xs := make([]*tensor.Tensor, 0, batchSize)
	for start := 0; start < len(samples); start += batchSize {
		end := start + batchSize
		if end > len(samples) {
			end = len(samples)
		}
		xs = xs[:0]
		for _, s := range samples[start:end] {
			xs = append(xs, s.X)
		}
		batch, err := Stack(xs)
		if err != nil {
			return nil, fmt.Errorf("nn: int8 calibration: %w", err)
		}
		if _, err := n.ForwardBatchArena(batch, ar); err != nil {
			return nil, fmt.Errorf("nn: int8 calibration: %w", err)
		}
	}
	q := &QuantParams{scales: make(map[Layer]tensor.Int8Scale, len(maxAbs))}
	for l, m := range maxAbs {
		q.scales[l] = tensor.Int8ScaleFor(m)
	}
	return q, nil
}

// growInt32 returns buf with length n, reusing its storage when possible.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// packedLayer is the arena's per-layer cache of packed GEMM operands. Weight
// panels (and the int8 weight scale) are rebuilt whenever their epoch falls
// behind the arena's weight epoch — i.e. after every weight swap the arena is
// told about via InvalidateWeights. Activation panels and the int32
// accumulator are per-call scratch whose backing storage persists so the
// steady state allocates nothing.
type packedLayer struct {
	// Float path: conv caches the kernel matrix as the A operand, dense
	// caches Wᵀ as the B operand.
	wEpoch uint64
	wA     tensor.PackedA
	wB     tensor.PackedB
	actA   tensor.PackedA // dense input panels (per call)
	actB   tensor.PackedB // conv column panels (per call)

	// Int8 path: quantized weight panels plus the weight scale they were
	// quantized with.
	qwEpoch uint64
	wScale  tensor.Int8Scale
	qwA     tensor.PackedAInt8
	qwB     tensor.PackedBInt8
	qactA   tensor.PackedAInt8 // dense input panels (per call)
	qactB   tensor.PackedBInt8 // conv column panels (per call)
	acc     []int32            // int32 GEMM output (per call)

	// Training step: the weight operand of the input-gradient GEMM, packed
	// once per step (conv Kᵀ on the left, dense W on the right), and the
	// gradient-side operand panels.
	kT tensor.PackedA
	wT tensor.PackedB
	gA tensor.PackedA
	gB tensor.PackedB
}

// packedFor returns l's packed-operand cache, creating it on first use.
func (a *InferenceArena) packedFor(l Layer) *packedLayer {
	p := a.packed[l]
	if p == nil {
		p = &packedLayer{}
		a.packed[l] = p
	}
	return p
}

// InvalidateWeights marks every cached packed weight panel stale. Whoever
// writes a network's weights — fault injection, rejuvenation restore,
// training — calls this on each arena that runs it, so the next forward pass
// repacks (and, on the int8 path, re-quantizes) from the current weights.
// The float activations buffers need no invalidation: they are fully
// overwritten on every call.
func (a *InferenceArena) InvalidateWeights() {
	a.weightEpoch++
}

// convWeightsPacked returns c's packed kernel-matrix panels, repacking when
// the arena's weight epoch moved.
func (a *InferenceArena) convWeightsPacked(c *Conv2D) (*packedLayer, error) {
	p := a.packedFor(c)
	if p.wEpoch != a.weightEpoch {
		if err := p.wA.Pack(c.kernelMatrix()); err != nil {
			return nil, err
		}
		p.wEpoch = a.weightEpoch
	}
	return p, nil
}

// denseWeightsPacked returns d's packed Wᵀ panels, repacking when the
// arena's weight epoch moved.
func (a *InferenceArena) denseWeightsPacked(d *Dense) (*packedLayer, error) {
	p := a.packedFor(d)
	if p.wEpoch != a.weightEpoch {
		if err := p.wB.PackTransposed(d.W); err != nil {
			return nil, err
		}
		p.wEpoch = a.weightEpoch
	}
	return p, nil
}

// convWeightsQuantized returns c's int8 kernel-matrix panels, re-quantizing
// from the current weights when the arena's weight epoch moved.
func (a *InferenceArena) convWeightsQuantized(c *Conv2D) (*packedLayer, error) {
	p := a.packedFor(c)
	if p.qwEpoch != a.weightEpoch {
		p.wScale = tensor.Int8ScaleFor(tensor.MaxAbs(c.Kernel.Data))
		if err := p.qwA.Pack(c.kernelMatrix(), p.wScale.Inv); err != nil {
			return nil, err
		}
		p.qwEpoch = a.weightEpoch
	}
	return p, nil
}

// denseWeightsQuantized returns d's int8 Wᵀ panels, re-quantizing from the
// current weights when the arena's weight epoch moved.
func (a *InferenceArena) denseWeightsQuantized(d *Dense) (*packedLayer, error) {
	p := a.packedFor(d)
	if p.qwEpoch != a.weightEpoch {
		p.wScale = tensor.Int8ScaleFor(tensor.MaxAbs(d.W.Data))
		if err := p.qwB.PackTransposed(d.W, p.wScale.Inv); err != nil {
			return nil, err
		}
		p.qwEpoch = a.weightEpoch
	}
	return p, nil
}

// forwardArenaInt8 is the quantized convolution kernel dispatch: the column
// matrix is unrolled row by row and quantized with the calibrated activation
// scale straight into int8 panels, multiplied against the int8 weight panels
// in exact int32 arithmetic, and dequantized while the bias/reorder pass
// writes the output, each row then rectified in place when relu is set. The
// shape checks are forwardArena's, which also computed (oh, ow).
func (c *Conv2D) forwardArenaInt8(x *tensor.Tensor, xs tensor.Int8Scale,
	oh, ow int, ar *InferenceArena, relu bool) (*tensor.Tensor, error) {
	b, outC := x.Shape[0], c.Kernel.Shape[0]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	spatial := oh * ow
	p, err := ar.convWeightsQuantized(c)
	if err != nil {
		return nil, err
	}
	if err := p.qactB.PackIm2Col(x, kh, kw, c.Stride, c.Pad, xs.Inv); err != nil {
		return nil, err
	}
	p.acc = growInt32(p.acc, outC*b*spatial)
	if err := tensor.GemmInt8Packed(p.acc, &p.qwA, &p.qactB); err != nil {
		return nil, err
	}
	ar.noteGemm(outC, b*spatial, p.qactB.K)
	// Dequantize fused into the (outC, B·oh·ow) → (B, outC, oh, ow) reorder:
	// one multiply per element on top of the float path's bias add.
	scale := p.wScale.Scale * xs.Scale
	out := ar.tensor(c, arenaOut, b, outC, oh, ow)
	for bi := 0; bi < b; bi++ {
		dst := out.Data[bi*outC*spatial : (bi+1)*outC*spatial]
		for o := 0; o < outC; o++ {
			bias := c.Bias.Data[o]
			src := p.acc[o*b*spatial+bi*spatial : o*b*spatial+(bi+1)*spatial]
			row := dst[o*spatial : (o+1)*spatial]
			for j, v := range src {
				row[j] = float32(v)*scale + bias
			}
			if relu {
				reluInto(row, row)
			}
		}
	}
	return out, nil
}

// forwardArenaInt8 is the quantized dense dispatch: the input batch is
// quantized row-wise with the calibrated activation scale and multiplied
// against the int8 Wᵀ panels; the bias pass dequantizes, then rectifies
// when relu is set.
func (d *Dense) forwardArenaInt8(x *tensor.Tensor, xs tensor.Int8Scale,
	b, out, in int, ar *InferenceArena, relu bool) (*tensor.Tensor, error) {
	p, err := ar.denseWeightsQuantized(d)
	if err != nil {
		return nil, err
	}
	if err := p.qactA.Pack(x, xs.Inv); err != nil {
		return nil, err
	}
	p.acc = growInt32(p.acc, b*out)
	if err := tensor.GemmInt8Packed(p.acc, &p.qactA, &p.qwB); err != nil {
		return nil, err
	}
	ar.noteGemm(b, out, in)
	scale := p.wScale.Scale * xs.Scale
	y := ar.tensor(d, arenaOut, b, out)
	for i := 0; i < b; i++ {
		src := p.acc[i*out : (i+1)*out]
		row := y.Data[i*out : (i+1)*out]
		for o, v := range src {
			row[o] = float32(v)*scale + d.B.Data[o]
		}
		if relu {
			reluInto(row, row)
		}
	}
	return y, nil
}
