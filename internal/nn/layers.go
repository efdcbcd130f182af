package nn

import (
	"fmt"
	"math"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// Compile-time interface compliance checks.
var (
	_ Layer = (*Center)(nil)
	_ Layer = (*Dense)(nil)
	_ Layer = (*Conv2D)(nil)
	_ Layer = (*ReLU)(nil)
	_ Layer = (*MaxPool2D)(nil)
	_ Layer = (*GlobalAvgPool)(nil)
	_ Layer = (*Flatten)(nil)
	_ Layer = (*Dropout)(nil)
	_ Layer = (*Residual)(nil)
)

// Center is a fixed (non-trainable) input-normalisation layer that shifts
// values by a constant, mapping [0,1] pixel data to the zero-centred range
// He-initialised weights expect.
type Center struct {
	Offset float32
	name   string
}

// NewCenter returns a centering layer subtracting offset.
func NewCenter(name string, offset float32) *Center {
	return &Center{Offset: offset, name: name}
}

// Name implements Layer.
func (l *Center) Name() string { return l.name }

// Forward implements Layer.
func (l *Center) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	y := x.Clone()
	for i := range y.Data {
		y.Data[i] -= l.Offset
	}
	return y, nil
}

// Backward implements Layer (identity gradient).
func (l *Center) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return grad, nil
}

// Params implements Layer.
func (l *Center) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *Center) Grads() []*tensor.Tensor { return nil }

// Dense is a fully connected layer: y = W·x + b with W of shape (out, in).
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	name   string

	lastX *tensor.Tensor
}

// NewDense returns a dense layer with He-normal initialised weights.
func NewDense(name string, in, out int, r *xrand.Rand) *Dense {
	d := &Dense{
		W:    tensor.New(out, in),
		B:    tensor.New(out),
		dW:   tensor.New(out, in),
		dB:   tensor.New(out),
		name: name,
	}
	d.W.RandomizeNormal(r, 0, math.Sqrt(2/float64(in)))
	return d
}

func (d *Dense) Name() string { return d.name }

func (d *Dense) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	if x.Len() != in {
		return nil, fmt.Errorf("dense %s: input size %d, want %d", d.name, x.Len(), in)
	}
	// Clone: retaining the caller's tensor by reference would corrupt the
	// weight gradient if the caller reuses its input buffer before Backward.
	d.lastX = x.Clone()
	y := tensor.New(out)
	for o := 0; o < out; o++ {
		row := d.W.Data[o*in : (o+1)*in]
		var sum float32
		for i, w := range row {
			sum += w * x.Data[i]
		}
		y.Data[o] = sum + d.B.Data[o]
	}
	return y, nil
}

func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	if grad.Len() != out {
		return nil, fmt.Errorf("dense %s: grad size %d, want %d", d.name, grad.Len(), out)
	}
	if d.lastX == nil {
		return nil, fmt.Errorf("dense %s: Backward before Forward", d.name)
	}
	dx := tensor.New(in)
	for o := 0; o < out; o++ {
		g := grad.Data[o]
		d.dB.Data[o] += g
		// No g == 0 shortcut: it would suppress IEEE 0·Inf = NaN and hide a
		// corrupted activation or weight from the gradients.
		wRow := d.W.Data[o*in : (o+1)*in]
		dwRow := d.dW.Data[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			dwRow[i] += g * d.lastX.Data[i]
			dx.Data[i] += g * wRow[i]
		}
	}
	return dx, nil
}

func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }
func (d *Dense) Grads() []*tensor.Tensor  { return []*tensor.Tensor{d.dW, d.dB} }

// Conv2D is a 2-D convolution over (C, H, W) inputs implemented with im2col.
// The kernel tensor has shape (outC, inC, KH, KW).
type Conv2D struct {
	Kernel, Bias *tensor.Tensor
	dK, dB       *tensor.Tensor
	Stride, Pad  int
	name         string

	lastCols  *tensor.Tensor
	lastShape []int
	kmat      *tensor.Tensor
}

// NewConv2D returns a convolution layer with He-normal initialised kernels.
func NewConv2D(name string, inC, outC, k, stride, pad int, r *xrand.Rand) *Conv2D {
	c := &Conv2D{
		Kernel: tensor.New(outC, inC, k, k),
		Bias:   tensor.New(outC),
		dK:     tensor.New(outC, inC, k, k),
		dB:     tensor.New(outC),
		Stride: stride,
		Pad:    pad,
		name:   name,
	}
	fanIn := inC * k * k
	c.Kernel.RandomizeNormal(r, 0, math.Sqrt(2/float64(fanIn)))
	c.kmat = &tensor.Tensor{Shape: []int{outC, fanIn}, Data: c.Kernel.Data}
	return c
}

func (c *Conv2D) Name() string { return c.name }

// kernelMatrix returns the (outC, inC·KH·KW) matrix view of the kernel, built
// once by NewConv2D so no forward pass writes layer state (arenas on several
// goroutines share one network). The view aliases Kernel.Data, which every
// mutation path (training, fault injection, RestoreWeights) updates in place
// rather than replacing — so it can never go stale.
func (c *Conv2D) kernelMatrix() *tensor.Tensor { return c.kmat }

func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	if len(x.Shape) != 3 {
		return nil, fmt.Errorf("conv %s: want (C,H,W) input, got %v", c.name, x.Shape)
	}
	outC, inC := c.Kernel.Shape[0], c.Kernel.Shape[1]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	if x.Shape[0] != inC {
		return nil, fmt.Errorf("conv %s: input channels %d, want %d", c.name, x.Shape[0], inC)
	}
	cols, err := tensor.Im2Col(x, kh, kw, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("conv %s: %w", c.name, err)
	}
	c.lastCols = cols
	c.lastShape = x.Shape
	y, err := tensor.MatMul(c.kernelMatrix(), cols)
	if err != nil {
		return nil, fmt.Errorf("conv %s: %w", c.name, err)
	}
	oh, ow := tensor.Conv2DShape(x.Shape[1], x.Shape[2], kh, kw, c.Stride, c.Pad)
	spatial := oh * ow
	for o := 0; o < outC; o++ {
		b := c.Bias.Data[o]
		row := y.Data[o*spatial : (o+1)*spatial]
		for i := range row {
			row[i] += b
		}
	}
	return y.Reshape(outC, oh, ow)
}

func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.lastCols == nil {
		return nil, fmt.Errorf("conv %s: Backward before Forward", c.name)
	}
	outC, inC := c.Kernel.Shape[0], c.Kernel.Shape[1]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	spatial := c.lastCols.Shape[1]
	gmat, err := grad.Reshape(outC, spatial)
	if err != nil {
		return nil, fmt.Errorf("conv %s: grad shape %v: %w", c.name, grad.Shape, err)
	}
	// Bias gradient: sum over spatial positions.
	for o := 0; o < outC; o++ {
		var sum float32
		for _, v := range gmat.Data[o*spatial : (o+1)*spatial] {
			sum += v
		}
		c.dB.Data[o] += sum
	}
	// Kernel gradient: grad · colsᵀ.
	dk, err := tensor.MatMulTransB(gmat, c.lastCols)
	if err != nil {
		return nil, err
	}
	if err := c.dK.AddInPlace(dk); err != nil {
		return nil, err
	}
	// Input gradient: kernelᵀ · grad, scattered back with Col2Im.
	dcols, err := tensor.MatMulTransA(c.kernelMatrix(), gmat)
	if err != nil {
		return nil, err
	}
	return tensor.Col2Im(dcols, inC, c.lastShape[1], c.lastShape[2], kh, kw, c.Stride, c.Pad)
}

func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.Kernel, c.Bias} }
func (c *Conv2D) Grads() []*tensor.Tensor  { return []*tensor.Tensor{c.dK, c.dB} }

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

func (l *ReLU) Name() string { return l.name }

func (l *ReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	y := x.Clone()
	if cap(l.mask) < y.Len() {
		l.mask = make([]bool, y.Len())
	}
	l.mask = l.mask[:y.Len()]
	// NaN propagates (v <= 0 is false for NaN), matching ForwardBatchArena —
	// zeroing it would hide fault-injected corruption from the voter.
	for i, v := range y.Data {
		l.mask[i] = v > 0
		if v <= 0 {
			y.Data[i] = 0
		}
	}
	return y, nil
}

func (l *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if grad.Len() != len(l.mask) {
		return nil, fmt.Errorf("relu %s: grad size %d, mask size %d", l.name, grad.Len(), len(l.mask))
	}
	dx := grad.Clone()
	for i := range dx.Data {
		if !l.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx, nil
}

func (l *ReLU) Params() []*tensor.Tensor { return nil }
func (l *ReLU) Grads() []*tensor.Tensor  { return nil }

// MaxPool2D is non-overlapping max pooling with a square window.
type MaxPool2D struct {
	Size int
	name string

	argmax    []int
	lastShape []int
}

// NewMaxPool2D returns a max-pooling layer with the given window size
// (stride equals the window size).
func NewMaxPool2D(name string, size int) *MaxPool2D {
	return &MaxPool2D{Size: size, name: name}
}

func (l *MaxPool2D) Name() string { return l.name }

func (l *MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	if len(x.Shape) != 3 {
		return nil, fmt.Errorf("maxpool %s: want (C,H,W) input, got %v", l.name, x.Shape)
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	s := l.Size
	oh, ow := h/s, w/s
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("maxpool %s: input %v smaller than window %d", l.name, x.Shape, s)
	}
	l.lastShape = x.Shape
	y := tensor.New(c, oh, ow)
	if cap(l.argmax) < y.Len() {
		l.argmax = make([]int, y.Len())
	}
	l.argmax = l.argmax[:y.Len()]
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Seed with the window's first element, like ForwardBatchArena:
				// a -Inf/-1 seed never updates on an all-NaN window (every
				// compare is false) and Backward then indexes dx.Data[-1].
				start := base + (oy*s)*w + ox*s
				best, bi := x.Data[start], start
				for dy := 0; dy < s; dy++ {
					rowBase := base + (oy*s+dy)*w + ox*s
					for dx := 0; dx < s; dx++ {
						if v := x.Data[rowBase+dx]; v > best {
							best, bi = v, rowBase+dx
						}
					}
				}
				y.Data[oi] = best
				l.argmax[oi] = bi
				oi++
			}
		}
	}
	return y, nil
}

func (l *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if grad.Len() != len(l.argmax) {
		return nil, fmt.Errorf("maxpool %s: grad size %d, want %d", l.name, grad.Len(), len(l.argmax))
	}
	dx := tensor.New(l.lastShape...)
	for i, src := range l.argmax {
		dx.Data[src] += grad.Data[i]
	}
	return dx, nil
}

func (l *MaxPool2D) Params() []*tensor.Tensor { return nil }
func (l *MaxPool2D) Grads() []*tensor.Tensor  { return nil }

// GlobalAvgPool reduces (C, H, W) to a length-C vector by spatial averaging,
// as in ResNet's final pooling stage.
type GlobalAvgPool struct {
	name      string
	lastShape []int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

func (l *GlobalAvgPool) Name() string { return l.name }

func (l *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	if len(x.Shape) != 3 {
		return nil, fmt.Errorf("gap %s: want (C,H,W) input, got %v", l.name, x.Shape)
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	l.lastShape = x.Shape
	y := tensor.New(c)
	inv := float32(1 / float64(h*w))
	for ch := 0; ch < c; ch++ {
		var sum float32
		for _, v := range x.Data[ch*h*w : (ch+1)*h*w] {
			sum += v
		}
		y.Data[ch] = sum * inv
	}
	return y, nil
}

func (l *GlobalAvgPool) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	c, h, w := l.lastShape[0], l.lastShape[1], l.lastShape[2]
	if grad.Len() != c {
		return nil, fmt.Errorf("gap %s: grad size %d, want %d", l.name, grad.Len(), c)
	}
	dx := tensor.New(c, h, w)
	inv := float32(1 / float64(h*w))
	for ch := 0; ch < c; ch++ {
		g := grad.Data[ch] * inv
		row := dx.Data[ch*h*w : (ch+1)*h*w]
		for i := range row {
			row[i] = g
		}
	}
	return dx, nil
}

func (l *GlobalAvgPool) Params() []*tensor.Tensor { return nil }
func (l *GlobalAvgPool) Grads() []*tensor.Tensor  { return nil }

// Flatten reshapes any input to a vector.
type Flatten struct {
	name      string
	lastShape []int
}

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (l *Flatten) Name() string { return l.name }

func (l *Flatten) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	l.lastShape = x.Shape
	return x.Reshape(x.Len())
}

func (l *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return grad.Reshape(l.lastShape...)
}

func (l *Flatten) Params() []*tensor.Tensor { return nil }
func (l *Flatten) Grads() []*tensor.Tensor  { return nil }

// Dropout randomly zeroes activations during training (inverted dropout:
// survivors are scaled by 1/(1-p) so inference needs no rescaling).
type Dropout struct {
	P    float64
	name string
	rng  *xrand.Rand
	mask []float32
}

// NewDropout returns a dropout layer with drop probability p. Give every
// Dropout layer its own stream (r.Split): TrainBatch draws a whole batch's
// masks layer by layer and the per-sample spec sample by sample, which are
// the same draws only when no two layers share a stream.
func NewDropout(name string, p float64, r *xrand.Rand) *Dropout {
	return &Dropout{P: p, name: name, rng: r}
}

func (l *Dropout) Name() string { return l.name }

func (l *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || l.P <= 0 {
		// Identity at inference; mark mask as pass-through for Backward.
		if cap(l.mask) < x.Len() {
			l.mask = make([]float32, x.Len())
		}
		l.mask = l.mask[:x.Len()]
		for i := range l.mask {
			l.mask[i] = 1
		}
		return x, nil
	}
	y := x.Clone()
	if cap(l.mask) < y.Len() {
		l.mask = make([]float32, y.Len())
	}
	l.mask = l.mask[:y.Len()]
	keep := float32(1 / (1 - l.P))
	for i := range y.Data {
		if l.rng.Float64() < l.P {
			l.mask[i] = 0
			y.Data[i] = 0
		} else {
			l.mask[i] = keep
			y.Data[i] *= keep
		}
	}
	return y, nil
}

func (l *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if grad.Len() != len(l.mask) {
		return nil, fmt.Errorf("dropout %s: grad size %d, mask size %d", l.name, grad.Len(), len(l.mask))
	}
	dx := grad.Clone()
	for i := range dx.Data {
		dx.Data[i] *= l.mask[i]
	}
	return dx, nil
}

func (l *Dropout) Params() []*tensor.Tensor { return nil }
func (l *Dropout) Grads() []*tensor.Tensor  { return nil }

// Residual wraps a body sub-stack with a skip connection:
// y = body(x) + proj(x), where proj is identity when nil (requiring the body
// to preserve the element count) or a 1×1 convolution / dense projection when
// the body changes dimensions — the structural signature of ResNet.
type Residual struct {
	Body []Layer
	Proj Layer // optional projection for the skip path
	name string
}

// NewResidual returns a residual block over the given body layers. proj may
// be nil for an identity skip.
func NewResidual(name string, proj Layer, body ...Layer) *Residual {
	return &Residual{Body: body, Proj: proj, name: name}
}

func (l *Residual) Name() string { return l.name }

func (l *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	y := x
	var err error
	for _, b := range l.Body {
		y, err = b.Forward(y, train)
		if err != nil {
			return nil, fmt.Errorf("residual %s body %s: %w", l.name, b.Name(), err)
		}
	}
	skip := x
	if l.Proj != nil {
		skip, err = l.Proj.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("residual %s proj: %w", l.name, err)
		}
	}
	out := y.Clone()
	if err := out.AddInPlace(skip); err != nil {
		return nil, fmt.Errorf("residual %s: body and skip shapes incompatible: %w", l.name, err)
	}
	return out, nil
}

func (l *Residual) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	bodyGrad := grad
	var err error
	for i := len(l.Body) - 1; i >= 0; i-- {
		bodyGrad, err = l.Body[i].Backward(bodyGrad)
		if err != nil {
			return nil, fmt.Errorf("residual %s body backward: %w", l.name, err)
		}
	}
	skipGrad := grad
	if l.Proj != nil {
		skipGrad, err = l.Proj.Backward(grad)
		if err != nil {
			return nil, fmt.Errorf("residual %s proj backward: %w", l.name, err)
		}
	}
	dx := bodyGrad.Clone()
	if err := dx.AddInPlace(skipGrad); err != nil {
		return nil, fmt.Errorf("residual %s: gradient shapes incompatible: %w", l.name, err)
	}
	return dx, nil
}

func (l *Residual) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, b := range l.Body {
		ps = append(ps, b.Params()...)
	}
	if l.Proj != nil {
		ps = append(ps, l.Proj.Params()...)
	}
	return ps
}

func (l *Residual) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, b := range l.Body {
		gs = append(gs, b.Grads()...)
	}
	if l.Proj != nil {
		gs = append(gs, l.Proj.Grads()...)
	}
	return gs
}
