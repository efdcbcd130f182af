package nn

import (
	"fmt"

	"mvml/internal/tensor"
)

// InferenceArena owns the reusable scratch buffers of the fused batched-GEMM
// inference path: packed GEMM operands, GEMM outputs and per-layer
// activations, keyed by layer so every layer of a network keeps a stable
// buffer across requests. After the first request at a given batch size the
// steady-state serving hot path performs zero heap allocations.
//
// An arena is NOT safe for concurrent use; a network on the arena path is —
// the forward pass writes the arena and nothing else — so serving workers
// share one network and own one arena each. Tensors returned by arena-backed
// calls are owned by the arena and remain valid only until the next call that
// uses the same arena.
type InferenceArena struct {
	// Profiler, when non-nil, receives per-layer timings and GEMM shapes
	// from every dispatch through this arena (see ForwardProfiler). The
	// default nil costs one branch per layer.
	Profiler ForwardProfiler

	// Quant, when non-nil, switches every layer with a calibrated activation
	// scale onto the int8 quantized kernels (see CalibrateInt8). Layers
	// without a scale keep the float path, so a partially calibrated network
	// still serves.
	Quant *QuantParams

	bufs map[arenaKey]*tensor.Tensor
	// packed caches per-layer packed GEMM operands; weight panels inside are
	// keyed against weightEpoch and lazily repacked after InvalidateWeights.
	packed map[Layer]*packedLayer
	// weightEpoch counts InvalidateWeights calls. It starts at 1 so the
	// zero-valued epoch of a fresh packedLayer is always stale.
	weightEpoch uint64
	// observer, when non-nil, sees every (layer, input) pair ahead of
	// dispatch, and (relu, output) after a dispatch with a ReLU fused into
	// it — the calibration hook, and how a training step records the
	// tensors its backward pass reads.
	observer func(l Layer, x *tensor.Tensor)
	// train marks a training step's forward pass: Dropout draws its mask.
	train bool
	// profLayer labels GEMM observations with the layer currently being
	// dispatched; maintained by profiledForward.
	profLayer string
}

// arenaPurpose distinguishes the scratch buffers one layer may hold.
type arenaPurpose uint8

const (
	arenaGemm arenaPurpose = iota // raw GEMM output before bias/reorder
	arenaOut                      // layer activation output
	arenaView                     // zero-copy reshaped view header

	// Training-step buffers (train.go).
	arenaGrad    // gradient w.r.t. the layer input
	arenaMask    // dropout keep mask, drawn by the training forward
	arenaCols    // one sample's im2col matrix
	arenaDK      // one sample's kernel gradient
	arenaDCols   // one sample's column-matrix gradient
	arenaSampleX // view of one sample of the layer input
	arenaSampleG // view of the output gradient as a matrix
)

type arenaKey struct {
	owner   Layer
	purpose arenaPurpose
}

// NewInferenceArena returns an empty arena; buffers are grown on demand.
func NewInferenceArena() *InferenceArena {
	return &InferenceArena{
		bufs:        make(map[arenaKey]*tensor.Tensor),
		packed:      make(map[Layer]*packedLayer),
		weightEpoch: 1,
	}
}

// tensor returns the buffer for (owner, purpose) shaped as requested,
// growing the backing storage when needed. Contents are unspecified — the
// caller must overwrite every element (the tensor kernels above write, never
// accumulate, so reuse is safe).
func (a *InferenceArena) tensor(owner Layer, purpose arenaPurpose, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := a.header(owner, purpose, shape)
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	}
	t.Data = t.Data[:n]
	return t
}

// view returns a tensor header for (owner, purpose) aliasing the given data
// — the zero-allocation counterpart of Reshape, used by Flatten.
func (a *InferenceArena) view(owner Layer, purpose arenaPurpose, data []float32, shape ...int) *tensor.Tensor {
	t := a.header(owner, purpose, shape)
	t.Data = data
	return t
}

// header returns the cached tensor header for (owner, purpose) with its
// Shape set, leaving Data to the caller.
func (a *InferenceArena) header(owner Layer, purpose arenaPurpose, shape []int) *tensor.Tensor {
	key := arenaKey{owner: owner, purpose: purpose}
	t := a.bufs[key]
	if t == nil {
		t = &tensor.Tensor{}
		a.bufs[key] = t
	}
	if cap(t.Shape) < len(shape) {
		t.Shape = make([]int, len(shape))
	}
	t.Shape = t.Shape[:len(shape)]
	copy(t.Shape, shape)
	return t
}

// ForwardBatchArena runs inference over a batch tensor with a leading batch
// dimension, e.g. (B, C, H, W) for the convolutional classifiers: one
// dispatch per layer instead of one per sample, bitwise identical to running
// the samples one at a time. With a reused arena the steady state allocates
// nothing; a nil arena is an error.
func (n *Network) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	return forwardBatchLayers(n.Layers, x, ar)
}

// PredictBatchArena returns the argmax class per batch row via the fused
// path. preds is reused when its capacity suffices and allocated otherwise;
// pass nil for a fresh slice (e.g. when the result outlives the next call).
func (n *Network) PredictBatchArena(x *tensor.Tensor, ar *InferenceArena, preds []int) ([]int, error) {
	out, err := n.ForwardBatchArena(x, ar)
	if err != nil {
		return nil, err
	}
	return argmaxRows(out, preds), nil
}

// argmaxRows writes the per-row argmax of a (B, classes) tensor into preds,
// growing it only when capacity is insufficient.
func argmaxRows(out *tensor.Tensor, preds []int) []int {
	b := out.Shape[0]
	stride := out.Len() / b
	if cap(preds) < b {
		preds = make([]int, b)
	}
	preds = preds[:b]
	for i := 0; i < b; i++ {
		row := out.Data[i*stride : (i+1)*stride]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		preds[i] = best
	}
	return preds
}

// ForwardBatchArena implements Layer (elementwise shift).
func (l *Center) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	y := ar.tensor(l, arenaOut, x.Shape...)
	off := l.Offset
	for i, v := range x.Data {
		y.Data[i] = v - off
	}
	return y, nil
}

// ForwardBatchArena implements Layer with one (B, in) × (out, in)ᵀ GEMM into
// the arena, bitwise identical to the per-sample dot products. The input is
// packed into register-block panels and multiplied against the cached packed
// Wᵀ (repacked only after InvalidateWeights); with a calibrated activation
// scale on ar.Quant the whole product runs in int8.
func (d *Dense) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	return d.forwardArena(x, ar, false)
}

// forwardArena is ForwardBatchArena whose bias pass also applies the
// following ReLU when relu is set.
func (d *Dense) forwardArena(x *tensor.Tensor, ar *InferenceArena, relu bool) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	if len(x.Shape) != 2 || x.Shape[1] != in {
		return nil, fmt.Errorf("dense %s: batched input shape %v, want (B, %d)", d.name, x.Shape, in)
	}
	b := x.Shape[0]
	if xs, ok := ar.Quant.Scale(d); ok {
		y, err := d.forwardArenaInt8(x, xs, b, out, in, ar, relu)
		if err != nil {
			return nil, fmt.Errorf("dense %s: %w", d.name, err)
		}
		return y, nil
	}
	y := ar.tensor(d, arenaOut, b, out)
	p, err := ar.denseWeightsPacked(d)
	if err != nil {
		return nil, fmt.Errorf("dense %s: %w", d.name, err)
	}
	if err := p.actA.Pack(x); err != nil {
		return nil, fmt.Errorf("dense %s: %w", d.name, err)
	}
	if err := tensor.GemmPacked(y, &p.actA, &p.wB); err != nil {
		return nil, fmt.Errorf("dense %s: %w", d.name, err)
	}
	ar.noteGemm(b, out, in)
	for i := 0; i < b; i++ {
		row := y.Data[i*out : (i+1)*out]
		addRow(row, row, d.B.Data, relu)
	}
	return y, nil
}

// ForwardBatchArena implements Layer: row-streamed im2col → panels → GEMM →
// bias/reorder. The whole batch is convolved with a single GEMM — one kernel
// dispatch per layer instead of one per sample, with zero steady-state
// allocations — and its column matrix exists only as packed panels.
func (c *Conv2D) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	return c.forwardArena(x, ar, false)
}

// forwardArena is ForwardBatchArena whose bias/reorder pass also applies the
// following ReLU when relu is set.
func (c *Conv2D) forwardArena(x *tensor.Tensor, ar *InferenceArena, relu bool) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("conv %s: want (B,C,H,W) input, got %v", c.name, x.Shape)
	}
	outC, inC := c.Kernel.Shape[0], c.Kernel.Shape[1]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	if x.Shape[1] != inC {
		return nil, fmt.Errorf("conv %s: input channels %d, want %d", c.name, x.Shape[1], inC)
	}
	b := x.Shape[0]
	oh, ow := tensor.Conv2DShape(x.Shape[2], x.Shape[3], kh, kw, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv %s: empty output for input %v", c.name, x.Shape)
	}
	spatial := oh * ow

	if xs, ok := ar.Quant.Scale(c); ok {
		out, err := c.forwardArenaInt8(x, xs, oh, ow, ar, relu)
		if err != nil {
			return nil, fmt.Errorf("conv %s: %w", c.name, err)
		}
		return out, nil
	}
	y := ar.tensor(c, arenaGemm, outC, b*spatial)
	p, err := ar.convWeightsPacked(c)
	if err != nil {
		return nil, fmt.Errorf("conv %s: %w", c.name, err)
	}
	if err := p.actB.PackIm2Col(x, kh, kw, c.Stride, c.Pad); err != nil {
		return nil, fmt.Errorf("conv %s: %w", c.name, err)
	}
	if err := tensor.GemmPacked(y, &p.wA, &p.actB); err != nil {
		return nil, fmt.Errorf("conv %s: %w", c.name, err)
	}
	ar.noteGemm(outC, b*spatial, inC*kh*kw)
	// Reorder (outC, B·oh·ow) → (B, outC, oh, ow), adding the bias on the
	// way: per (sample, channel) the run is contiguous on both sides.
	out := ar.tensor(c, arenaOut, b, outC, oh, ow)
	for bi := 0; bi < b; bi++ {
		dst := out.Data[bi*outC*spatial : (bi+1)*outC*spatial]
		for o := 0; o < outC; o++ {
			src := y.Data[o*b*spatial+bi*spatial : o*b*spatial+(bi+1)*spatial]
			addScalarRow(dst[o*spatial:(o+1)*spatial], src, c.Bias.Data[o], relu)
		}
	}
	return out, nil
}

// ForwardBatchArena implements Layer. NaN activations propagate
// (v <= 0 is false for NaN): zeroing them would hide fault-injected
// corruption from the voter.
func (l *ReLU) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	y := ar.tensor(l, arenaOut, x.Shape...)
	reluInto(y.Data, x.Data)
	return y, nil
}

// ForwardBatchArena implements Layer for (B, C, H, W) inputs. The window
// loop below is the spec; size-2 windows — the only size the three models
// use — take the SIMD kernel where there is one. Each window is seeded with
// its first element: a -Inf seed would never update on an all-NaN window
// (every compare is false) and so lose the NaN.
func (l *MaxPool2D) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("maxpool %s: want (B,C,H,W) input, got %v", l.name, x.Shape)
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	s := l.Size
	oh, ow := h/s, w/s
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("maxpool %s: input %v smaller than window %d", l.name, x.Shape, s)
	}
	y := ar.tensor(l, arenaOut, b, c, oh, ow)
	if haveAsm && s == 2 {
		for p := 0; p < b*c; p++ {
			for oy := 0; oy < oh; oy++ {
				rows := x.Data[(p*h+2*oy)*w:][:2*w] // the window's two source rows
				out := y.Data[(p*oh+oy)*ow:][:ow]
				maxPool2x2RowAsm(&out[0], &rows[0], &rows[w], ow)
			}
		}
		return y, nil
	}
	oi := 0
	for i := 0; i < b; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := x.Data[base+(oy*s)*w+ox*s]
					for dy := 0; dy < s; dy++ {
						rowBase := base + (oy*s+dy)*w + ox*s
						for dx := 0; dx < s; dx++ {
							if v := x.Data[rowBase+dx]; v > best {
								best = v
							}
						}
					}
					y.Data[oi] = best
					oi++
				}
			}
		}
	}
	return y, nil
}

// ForwardBatchArena implements Layer, reducing (B,C,H,W) to (B,C).
func (l *GlobalAvgPool) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("gap %s: want (B,C,H,W) input, got %v", l.name, x.Shape)
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := ar.tensor(l, arenaOut, b, c)
	inv := float32(1 / float64(h*w))
	for i := 0; i < b; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			var sum float32
			for _, v := range x.Data[base : base+h*w] {
				sum += v
			}
			y.Data[i*c+ch] = sum * inv
		}
	}
	return y, nil
}

// ForwardBatchArena implements Layer with a cached header aliasing
// the input — a Reshape without the allocation.
func (l *Flatten) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	b := x.Shape[0]
	return ar.view(l, arenaView, x.Data, b, x.Len()/b), nil
}

// ForwardBatchArena implements Layer: dropout is the identity at
// inference. In a training step it draws the batch's keep mask into the
// arena for backwardBatch; batch-first storage makes the draw order per
// sample, per element.
func (l *Dropout) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	if !ar.train || l.P <= 0 {
		return x, nil
	}
	y := ar.tensor(l, arenaOut, x.Shape...)
	mask := ar.tensor(l, arenaMask, x.Shape...)
	keep := float32(1 / (1 - l.P))
	for i, v := range x.Data {
		if l.rng.Float64() < l.P {
			mask.Data[i], y.Data[i] = 0, 0
		} else {
			mask.Data[i], y.Data[i] = keep, v*keep
		}
	}
	return y, nil
}

// ForwardBatchArena implements Layer. Body layers write into their
// own arena buffers and never mutate x, so the skip path reads x unchanged
// after the body has run.
func (l *Residual) ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	return l.forwardArena(x, ar, false)
}

// forwardArena is ForwardBatchArena whose sum pass also applies the
// following ReLU when relu is set.
func (l *Residual) forwardArena(x *tensor.Tensor, ar *InferenceArena, relu bool) (*tensor.Tensor, error) {
	y, err := forwardBatchLayers(l.Body, x, ar)
	if err != nil {
		return nil, fmt.Errorf("residual %s body: %w", l.name, err)
	}
	skip := x
	if l.Proj != nil {
		skip, err = forwardOneBatch(l.Proj, x, ar, nil)
		if err != nil {
			return nil, fmt.Errorf("residual %s proj: %w", l.name, err)
		}
	}
	if len(y.Data) != len(skip.Data) {
		return nil, fmt.Errorf("residual %s: body and skip shapes incompatible: %v vs %v", l.name, y.Shape, skip.Shape)
	}
	out := ar.tensor(l, arenaOut, y.Shape...)
	addRow(out.Data, y.Data, skip.Data, relu)
	return out, nil
}
