package nn

// The batched training step and the scratch it shares with evaluation.
//
// A step runs the whole mini-batch through each layer at once — forward on
// the serving forward itself (forwardBatchLayers, fused ReLUs included),
// backward as packed GEMMs whose operands are packed straight from the
// recorded tensors, no column matrix built — allocates nothing once warm,
// and must leave every weight exactly where the per-sample spec loop in the
// tests (forward in training mode, backward, sample after sample) leaves it.
// GemmPacked sums each output element's k products in ascending order from
// +0, as MatMul, MatMulTransA and MatMulTransB do, so any product the spec
// computes per sample may be moved onto it. What may not move is the order
// in which one accumulator receives its terms: a parameter gradient is a sum
// over samples in batch order of per-sample terms, each term complete before
// it is added. A convolution's dK is therefore Σ_s (G_s·cols_sᵀ), one GEMM
// and one add per sample — a single GEMM over the batch's columns would
// interleave the samples' spatial sums and change every weight — and each
// pixel of its dX_s = col2im(Kᵀ·G_s) sums its terms in the spec's ascending
// (ky, kx) order from +0. A dense layer's dW[o][i] is Σ_s g_s[o]·x_s[i], one
// product per sample, which is exactly a GEMM whose k runs over the batch.
// Dropout draws per layer, per sample, per element in batch order, so each
// Dropout layer needs its own RNG stream to match the spec.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// scratch is a network's private working memory for Predict, Accuracy,
// ErrorSet and TrainBatch: an arena for activations, gradients and packed
// operands (its nil-owner buffers are the network's own: the stacked input
// batch and the loss gradient), plus what the arena cannot hold. Like the
// network it is not safe for concurrent use.
type scratch struct {
	ar    *InferenceArena
	shape []int // stack's batch-first shape
	preds []int
	// inputs records the tensor each layer was fed by the current step's
	// forward pass — all a layer's backwardBatch needs besides the gradient.
	// record, the arena's observer during that pass, fills it.
	inputs map[Layer]*tensor.Tensor
	record func(l Layer, x *tensor.Tensor)
	// params and grads are the network's Params and Grads, and trained its
	// layers from the first one with parameters on, all listed on the first
	// step: a network's layers do not change once it has run.
	params, grads []*tensor.Tensor
	trained       []Layer
	// first is trained[0]. Nothing consumes the gradient w.r.t. its input,
	// so backward stops there and a Conv2D or Dense in that position skips
	// the GEMM that would compute it.
	first Layer
}

func (n *Network) scratch() *scratch {
	if n.sc == nil {
		sc := &scratch{ar: NewInferenceArena(), inputs: make(map[Layer]*tensor.Tensor)}
		sc.record = func(l Layer, x *tensor.Tensor) { sc.inputs[l] = x }
		n.sc = sc
	}
	return n.sc
}

// stack copies the n samples sample(0..n-1) into one batch-first arena tensor.
func (sc *scratch) stack(n int, sample func(i int) *tensor.Tensor) (*tensor.Tensor, error) {
	sc.shape = append(append(sc.shape[:0], n), sample(0).Shape...)
	x := sc.ar.tensor(nil, arenaOut, sc.shape...)
	if err := stackInto(x, n, sample); err != nil {
		return nil, err
	}
	return x, nil
}

// TrainBatch accumulates gradients over a mini-batch and applies one
// optimiser step. It returns the mean softmax cross-entropy loss over the
// batch.
//
// The forward is forwardBatchLayers on the arena in training mode, where a
// Dropout layer draws its mask, with sc.record observing every dispatch. A
// ReLU fused into the layer before it is never dispatched and its input
// never written, so the observer sees the ReLU's output instead: the mask
// ReLU.backwardBatch reads off it is the same.
func (n *Network) TrainBatch(batch []Sample, opt *SGD) (float64, error) {
	if len(batch) == 0 {
		return 0, errors.New("nn: empty batch")
	}
	size := len(batch)
	sc := n.scratch()
	x, err := sc.stack(size, func(i int) *tensor.Tensor { return batch[i].X })
	if err != nil {
		return 0, err
	}
	if sc.params == nil {
		sc.params, sc.grads = n.Params(), n.Grads()
		if i := slices.IndexFunc(n.Layers, func(l Layer) bool { return len(l.Params()) > 0 }); i >= 0 {
			sc.trained, sc.first = n.Layers[i:], n.Layers[i]
		}
	}
	for _, g := range sc.grads {
		g.Zero()
	}
	sc.ar.InvalidateWeights() // the last step, or anyone since, moved the weights
	sc.ar.train, sc.ar.observer = true, sc.record
	out, err := forwardBatchLayers(n.Layers, x, sc.ar)
	sc.ar.train, sc.ar.observer = false, nil
	if err != nil {
		return 0, err
	}
	stride := out.Len() / size
	g := sc.ar.tensor(nil, arenaGrad, out.Shape...)
	var total float64
	for i := 0; i < size; i++ {
		row := sc.ar.view(nil, arenaView, out.Data[i*stride:(i+1)*stride], out.Shape[1:]...)
		grad := sc.ar.view(nil, arenaSampleG, g.Data[i*stride:(i+1)*stride], out.Shape[1:]...)
		l, err := softmaxCrossEntropyInto(row, grad, batch[i].Label)
		if err != nil {
			return 0, err
		}
		total += l
	}
	if _, err := sc.backward(sc.trained, g); err != nil {
		return 0, err
	}
	if err := opt.Step(sc.params, sc.grads, size); err != nil {
		return 0, err
	}
	return total / float64(size), nil
}

// TrainConfig is the training loop's budget.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
}

// DefaultTrainConfig returns Table II's budget: 20 epochs of batch 32 at lr
// 0.04 (the paper uses 20 epochs, batch 128, lr 0.001 on full GTSRB; the
// synthetic set is smaller).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, BatchSize: 32, LearningRate: 0.04}
}

// Train runs mini-batch SGD with momentum and step learning-rate decay over
// the training set for cfg.Epochs: every epoch reshuffles the samples with
// rng and steps on full batches only.
func Train(net *Network, samples []Sample, cfg TrainConfig, rng *xrand.Rand) error {
	opt := NewSGD(cfg.LearningRate, 0.9)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]Sample, 0, cfg.BatchSize)
	decayEvery := cfg.Epochs/3 + 1
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 && epoch%decayEvery == 0 {
			opt.LR *= 0.4 // step decay stabilises the late epochs
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start+cfg.BatchSize <= len(idx); start += cfg.BatchSize {
			batch = batch[:0]
			for _, k := range idx[start : start+cfg.BatchSize] {
				batch = append(batch, samples[k])
			}
			if _, err := net.TrainBatch(batch, opt); err != nil {
				return err
			}
		}
	}
	return nil
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

// backwardBatch passes g where the ReLU let its input through: v > 0, false
// for NaN. x is the ReLU's input, or its output when the forward fused the
// ReLU into the layer before; the test answers the same on both for every
// bit pattern, since a ReLU maps v to v or to +0, and to +0 only a v the
// test masks.
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

func (l *Dropout) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	if l.P <= 0 {
		return g, nil
	}
	if g.Len() != x.Len() {
		return nil, fmt.Errorf("dropout %s: grad size %d, want %d", l.name, g.Len(), x.Len())
	}
	mask := sc.ar.tensor(l, arenaMask, x.Shape...) // as the forward drew it
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	for i, v := range g.Data {
		dx.Data[i] = v * mask.Data[i]
	}
	return dx, nil
}

// backwardBatch routes each output gradient to its window's argmax, found by
// scanning the window again (first maximum; a NaN seed keeps its place)
// rather than recorded, so the forward can stay on the SIMD pool kernel. A
// 2×2 window — the only size the models use — runs maxPool2x2BackRow, which
// writes all four of its pixels; the generic loop clears dx and adds into it.
func (l *MaxPool2D) backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error) {
	planes, h, w := x.Shape[0]*x.Shape[1], x.Shape[2], x.Shape[3]
	s := l.Size
	oh, ow := h/s, w/s
	if g.Len() != planes*oh*ow {
		return nil, fmt.Errorf("maxpool %s: grad size %d, want %d", l.name, g.Len(), planes*oh*ow)
	}
	dx := sc.ar.tensor(l, arenaGrad, x.Shape...)
	if s == 2 {
		for p := 0; p < planes; p++ {
			for oy := 0; oy < oh; oy++ {
				rows := x.Data[(p*h+2*oy)*w:][:2*w] // the window's two source rows
				drows := dx.Data[(p*h+2*oy)*w:][:2*w]
				maxPool2x2BackRow(drows[:w], drows[w:], rows[:w], rows[w:], g.Data[(p*oh+oy)*ow:][:ow])
				if w%2 == 1 { // the column no window covers
					drows[w-1], drows[2*w-1] = 0, 0
				}
			}
			if h%2 == 1 { // the row no window covers
				clear(dx.Data[(p*h+h-1)*w:][:w])
			}
		}
		return dx, nil
	}
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

// maxPool2x2BackRow writes the gradient of one row of len(g) 2×2 windows into
// the two destination rows d0 and d1 under the source rows r0 and r1.
func maxPool2x2BackRow(d0, d1, r0, r1, g []float32) {
	if haveAsm && len(g) > 0 {
		maxPool2x2BackRowAsm(&d0[0], &d1[0], &r0[0], &r1[0], &g[0], len(g))
		return
	}
	maxPool2x2BackRowGo(d0, d1, r0, r1, g)
}

// maxPool2x2BackRowGo is maxPool2x2BackRow's portable arm and the executable
// spec of the assembly one. Window i holds r0[2i], r0[2i+1], r1[2i],
// r1[2i+1]; the first maximum in that order under "v > best" wins, so a NaN
// seed keeps its place and a NaN elsewhere never wins. The winner's pixel
// gets +0 + g[i] — the generic loop's add onto a cleared +0, which turns a
// −0 gradient into +0 — and the other three get +0.
func maxPool2x2BackRowGo(d0, d1, r0, r1, g []float32) {
	for i, gv := range g {
		a, b, c, d := r0[2*i], r0[2*i+1], r1[2*i], r1[2*i+1]
		best, k := a, 0
		if b > best {
			best, k = b, 1
		}
		if c > best {
			best, k = c, 2
		}
		if d > best {
			k = 3
		}
		var win [4]float32
		win[k] += gv
		d0[2*i], d0[2*i+1], d1[2*i], d1[2*i+1] = win[0], win[1], win[2], win[3]
	}
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
// spec's sample-by-sample dW[o][i] += g·x[i] from zeroed gradients —
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
// gradient, dK += G_s·cols_sᵀ with cols_sᵀ packed straight from the image,
// and dX_s = col2im(Kᵀ·G_s) with Kᵀ packed once.
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
	dk := ar.tensor(c, arenaDK, outC, ckk)
	var dcols, dx *tensor.Tensor
	var padded []float32
	if sc.first != Layer(c) {
		if err := p.kT.PackTransposed(c.kernelMatrix()); err != nil {
			return nil, err
		}
		dcols = ar.tensor(c, arenaDCols, ckk, spatial)
		dx = ar.tensor(c, arenaGrad, x.Shape...)
		if c.Pad > 0 {
			padded = ar.tensor(c, arenaDPad, inC, h+2*c.Pad, w+2*c.Pad).Data
		}
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
		if err := p.gA.Pack(gs); err != nil {
			return nil, err
		}
		if err := p.gB.PackIm2ColTransposed(xs, kh, kw, c.Stride, c.Pad); err != nil {
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
		if err := tensor.Col2ImAdd(dx.Data[s*plane:(s+1)*plane], padded, dcols, inC, h, w, kh, kw, c.Stride, c.Pad); err != nil {
			return nil, err
		}
	}
	return dx, nil
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
