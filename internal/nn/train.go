package nn

// The batched training step and the scratch it shares with evaluation.
//
// A step runs the whole mini-batch through each layer at once — forward on
// the serving kernels, backward as packed GEMMs — and must leave every
// weight exactly where the per-sample spec loop (Forward(x, true), Backward,
// sample after sample) leaves it. GemmPacked sums each output element's k
// products in ascending order from +0, as MatMul, MatMulTransA and
// MatMulTransB do, so any product the spec computes per sample may be moved
// onto it. What may not move is the order in which one accumulator receives
// its terms: a parameter gradient is a sum over samples in batch order of
// per-sample terms, each term complete before it is added. A convolution's
// dK is therefore Σ_s (G_s·cols_sᵀ), one GEMM and one add per sample — a
// single GEMM over the batch's columns would interleave the samples' spatial
// sums and change every weight. A dense layer's dW[o][i] is Σ_s g_s[o]·x_s[i],
// one product per sample, which is exactly a GEMM whose k runs over the batch.
// Dropout draws per layer, per sample, per element in batch order, so each
// Dropout layer needs its own RNG stream to match the spec.

import (
	"fmt"
	"math"
	"slices"

	"mvml/internal/tensor"
)

// scratch is a network's private working memory for Accuracy, ErrorSet and
// TrainBatch: an arena for activations, gradients and packed operands (its
// nil-owner buffers are the network's own: the stacked input batch and the
// loss gradient), plus what the arena cannot hold. Like the network it is not
// safe for concurrent use.
type scratch struct {
	ar    *InferenceArena
	shape []int // stack's batch-first shape
	preds []int
	// inputs records the tensor each layer was fed by the current step's
	// forward pass — all a layer's backwardBatch needs besides the gradient.
	inputs map[Layer]*tensor.Tensor
	// first is the network's first layer with parameters. Nothing consumes
	// the gradient w.r.t. its input, so backward stops there and a Conv2D or
	// Dense in that position skips the GEMM that would compute it.
	first Layer
}

func (n *Network) scratch() *scratch {
	if n.sc == nil {
		n.sc = &scratch{ar: NewInferenceArena(), inputs: make(map[Layer]*tensor.Tensor)}
	}
	return n.sc
}

// stack copies the n samples sample(0..n-1) into one batch-first arena tensor.
func (sc *scratch) stack(n int, sample func(i int) *tensor.Tensor) (*tensor.Tensor, error) {
	first := sample(0)
	sc.shape = append(append(sc.shape[:0], n), first.Shape...)
	x := sc.ar.tensor(nil, arenaOut, sc.shape...)
	stride := first.Len()
	for i := 0; i < n; i++ {
		s := sample(i)
		if !slices.Equal(s.Shape, first.Shape) {
			return nil, fmt.Errorf("nn: sample %d has shape %v, the batch wants %v", i, s.Shape, first.Shape)
		}
		copy(x.Data[i*stride:(i+1)*stride], s.Data)
	}
	return x, nil
}

// lossFunc scores sample i's output row: the loss and its gradient w.r.t.
// that row.
type lossFunc func(i int, out *tensor.Tensor) (float64, *tensor.Tensor, error)

// trainStep is the one training step: size samples forward, loss per row,
// backward, one optimiser step. It returns the mean loss.
func (n *Network) trainStep(size int, sample func(i int) *tensor.Tensor, loss lossFunc, opt *SGD) (float64, error) {
	sc := n.scratch()
	x, err := sc.stack(size, sample)
	if err != nil {
		return 0, err
	}
	n.ZeroGrads()
	sc.ar.InvalidateWeights() // the last step, or anyone since, moved the weights
	out, err := sc.forward(n.Layers, x)
	if err != nil {
		return 0, err
	}
	stride := out.Len() / size
	g := sc.ar.tensor(nil, arenaGrad, out.Shape...)
	var total float64
	for i := 0; i < size; i++ {
		row := sc.ar.view(nil, arenaView, out.Data[i*stride:(i+1)*stride], out.Shape[1:]...)
		l, grad, err := loss(i, row)
		if err != nil {
			return 0, err
		}
		if grad.Len() != stride {
			return 0, fmt.Errorf("nn: loss gradient has %d elements, output row %d", grad.Len(), stride)
		}
		total += l
		copy(g.Data[i*stride:], grad.Data)
	}
	first := slices.IndexFunc(n.Layers, func(l Layer) bool { return len(l.Params()) > 0 })
	if first >= 0 {
		sc.first = n.Layers[first]
		if _, err := sc.backward(n.Layers[first:], g); err != nil {
			return 0, err
		}
	}
	if err := opt.Step(n.Params(), n.Grads(), size); err != nil {
		return 0, err
	}
	return total / float64(size), nil
}

// trainForwarder is implemented by the layers whose forward differs inside a
// training step: Dropout draws its mask, Residual recurses so that inner
// layers do. Every other layer trains on ForwardBatchArena.
type trainForwarder interface {
	forwardTrain(x *tensor.Tensor, sc *scratch) (*tensor.Tensor, error)
}

func (sc *scratch) forward(layers []Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, l := range layers {
		sc.inputs[l] = x
		if t, ok := l.(trainForwarder); ok {
			x, err = t.forwardTrain(x, sc)
		} else {
			x, err = l.ForwardBatchArena(x, sc.ar)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

func (sc *scratch) backward(layers []Layer, g *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		if g, err = l.backwardBatch(sc.inputs[l], g, sc); err != nil {
			return nil, fmt.Errorf("nn: layer %s backward: %w", l.Name(), err)
		}
	}
	return g, nil
}

func (l *Center) backwardBatch(_, g *tensor.Tensor, _ *scratch) (*tensor.Tensor, error) {
	return g, nil
}

func (l *Flatten) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	if g.Len() != x.Len() {
		return nil, fmt.Errorf("flatten %s: grad size %d, want %d", l.name, g.Len(), x.Len())
	}
	return sc.ar.view(l, arenaGrad, g.Data, x.Shape...), nil
}

// backwardBatch reads Forward's mask off the input: v > 0, false for NaN.
func (l *ReLU) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	if g.Len() != x.Len() {
		return nil, fmt.Errorf("relu %s: grad size %d, want %d", l.name, g.Len(), x.Len())
	}
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	gd := g.Data[:len(x.Data)]
	dd := dx.Data[:len(x.Data)]
	for i, v := range x.Data {
		// v > 0 on the bit pattern (see reluBits) is [1, +Inf's bits]; with
		// the gradient already loaded the select compiles to a conditional
		// move, not a coin-flip branch.
		out := math.Float32bits(gd[i])
		if math.Float32bits(v)-1 >= 0x7f800000 {
			out = 0
		}
		dd[i] = math.Float32frombits(out)
	}
	return dx, nil
}

// forwardTrain draws the layer's mask for the whole batch; batch-first
// storage makes the draw order per sample, per element.
func (l *Dropout) forwardTrain(x *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	if l.P <= 0 {
		return x, nil
	}
	y := sc.ar.tensor(l, arenaOut, x.Shape...)
	mask := sc.ar.tensor(l, arenaMask, x.Shape...)
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

func (l *Dropout) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	if l.P <= 0 {
		return g, nil
	}
	if g.Len() != x.Len() {
		return nil, fmt.Errorf("dropout %s: grad size %d, want %d", l.name, g.Len(), x.Len())
	}
	mask := sc.ar.tensor(l, arenaMask, x.Shape...) // as forwardTrain left it
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	for i, v := range g.Data {
		dx.Data[i] = v * mask.Data[i]
	}
	return dx, nil
}

// backwardBatch routes each output gradient to its window's argmax, found by
// Forward's scan again (first maximum; a NaN seed keeps its place) rather
// than recorded, so the forward can stay on the SIMD pool kernel.
func (l *MaxPool2D) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	planes, h, w := x.Shape[0]*x.Shape[1], x.Shape[2], x.Shape[3]
	s := l.Size
	oh, ow := h/s, w/s
	if g.Len() != planes*oh*ow {
		return nil, fmt.Errorf("maxpool %s: grad size %d, want %d", l.name, g.Len(), planes*oh*ow)
	}
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	clear(dx.Data)
	oi := 0
	for p := 0; p < planes; p++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				start := (p*h+oy*s)*w + ox*s
				best, bi := x.Data[start], start
				for dy := 0; dy < s; dy++ {
					row := start + dy*w
					for i, v := range x.Data[row : row+s] {
						if v > best {
							best, bi = v, row+i
						}
					}
				}
				dx.Data[bi] += g.Data[oi]
				oi++
			}
		}
	}
	return dx, nil
}

func (l *GlobalAvgPool) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	planes, hw := x.Shape[0]*x.Shape[1], x.Shape[2]*x.Shape[3]
	if g.Len() != planes {
		return nil, fmt.Errorf("gap %s: grad size %d, want %d", l.name, g.Len(), planes)
	}
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	inv := float32(1 / float64(hw))
	for p, v := range g.Data {
		v *= inv
		plane := dx.Data[p*hw : (p+1)*hw]
		for i := range plane {
			plane[i] = v
		}
	}
	return dx, nil
}

// backwardBatch is two GEMMs: dW = Gᵀ·X, whose k runs over the batch — the
// spec's sample-by-sample dW[o][i] += g·x[i] from the zeros ZeroGrads left —
// and dX = G·W, each row the spec's ascending-o sum.
func (d *Dense) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	b := x.Shape[0]
	if g.Len() != b*out {
		return nil, fmt.Errorf("dense %s: grad size %d, want %d", d.name, g.Len(), b*out)
	}
	gm := sc.ar.view(d, arenaSampleG, g.Data, b, out)
	for s := 0; s < b; s++ {
		for o, v := range gm.Data[s*out : (s+1)*out] {
			d.dB.Data[o] += v
		}
	}
	p := sc.ar.packedFor(d)
	if err := p.gA.PackTransposed(gm); err != nil {
		return nil, err
	}
	if err := p.gB.Pack(x); err != nil {
		return nil, err
	}
	if err := tensor.GemmPacked(d.dW, &p.gA, &p.gB); err != nil {
		return nil, err
	}
	if sc.first == Layer(d) {
		return nil, nil
	}
	if err := p.gA.Pack(gm); err != nil {
		return nil, err
	}
	if err := p.wT.Pack(d.W); err != nil {
		return nil, err
	}
	dx := sc.ar.tensor(d, arenaGrad, b, in)
	if err := tensor.GemmPacked(dx, &p.gA, &p.wT); err != nil {
		return nil, err
	}
	return dx, nil
}

// backwardBatch walks the batch in order, one sample at a time: bias
// gradient, dK += G_s·cols_sᵀ, and dX_s = col2im(Kᵀ·G_s) with Kᵀ packed once.
func (c *Conv2D) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	ar := sc.ar
	outC, inC := c.Kernel.Shape[0], c.Kernel.Shape[1]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := tensor.Conv2DShape(h, w, kh, kw, c.Stride, c.Pad)
	spatial, ckk, plane := oh*ow, inC*kh*kw, inC*h*w
	if g.Len() != b*outC*spatial {
		return nil, fmt.Errorf("conv %s: grad size %d, want %d", c.name, g.Len(), b*outC*spatial)
	}
	p := ar.packedFor(c)
	cols := ar.tensor(c, arenaCols, ckk, spatial)
	dk := ar.tensor(c, arenaDK, outC, ckk)
	var dcols, dx *tensor.Tensor
	if sc.first != Layer(c) {
		if err := p.kT.PackTransposed(c.kernelMatrix()); err != nil {
			return nil, err
		}
		dcols = ar.tensor(c, arenaDCols, ckk, spatial)
		dx = ar.tensor(c, arenaGrad, x.Shape...)
		clear(dx.Data)
	}
	for s := 0; s < b; s++ {
		xs := ar.view(c, arenaSampleX, x.Data[s*plane:(s+1)*plane], 1, inC, h, w)
		gs := ar.view(c, arenaSampleG, g.Data[s*outC*spatial:(s+1)*outC*spatial], outC, spatial)
		for o := 0; o < outC; o++ {
			var sum float32
			for _, v := range gs.Data[o*spatial : (o+1)*spatial] {
				sum += v
			}
			c.dB.Data[o] += sum
		}
		if err := tensor.Im2ColBatch(xs, kh, kw, c.Stride, c.Pad, cols); err != nil {
			return nil, err
		}
		if err := p.gA.Pack(gs); err != nil {
			return nil, err
		}
		if err := p.gB.PackTransposed(cols); err != nil {
			return nil, err
		}
		if err := tensor.GemmPacked(dk, &p.gA, &p.gB); err != nil {
			return nil, err
		}
		if err := c.dK.AddInPlace(dk); err != nil {
			return nil, err
		}
		if dx == nil {
			continue
		}
		if err := p.gB.Pack(gs); err != nil {
			return nil, err
		}
		if err := tensor.GemmPacked(dcols, &p.kT, &p.gB); err != nil {
			return nil, err
		}
		if err := tensor.Col2ImAdd(dx.Data[s*plane:(s+1)*plane], dcols, inC, h, w, kh, kw, c.Stride, c.Pad); err != nil {
			return nil, err
		}
	}
	return dx, nil
}

// forwardTrain is ForwardBatchArena with the body and projection run in
// training mode.
func (l *Residual) forwardTrain(x *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	y, err := sc.forward(l.Body, x)
	if err != nil {
		return nil, err
	}
	skip := x
	if l.Proj != nil {
		if skip, err = sc.forward([]Layer{l.Proj}, x); err != nil {
			return nil, err
		}
	}
	return l.sum(sc.ar, y, skip, false)
}

func (l *Residual) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	body, err := sc.backward(l.Body, g)
	if err != nil {
		return nil, err
	}
	skip := g
	if l.Proj != nil {
		if skip, err = sc.backward([]Layer{l.Proj}, g); err != nil {
			return nil, err
		}
	}
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	copy(dx.Data, body.Data)
	if err := dx.AddInPlace(skip); err != nil {
		return nil, fmt.Errorf("residual %s: gradient shapes incompatible: %w", l.name, err)
	}
	return dx, nil
}
