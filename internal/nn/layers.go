package nn

import (
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

// Params implements Layer.
func (l *Center) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *Center) Grads() []*tensor.Tensor { return nil }

// Dense is a fully connected layer: y = W·x + b with W of shape (out, in).
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	name   string
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

func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }
func (d *Dense) Grads() []*tensor.Tensor  { return []*tensor.Tensor{d.dW, d.dB} }

// Conv2D is a 2-D convolution over (C, H, W) samples implemented with im2col.
// The kernel tensor has shape (outC, inC, KH, KW).
type Conv2D struct {
	Kernel, Bias *tensor.Tensor
	dK, dB       *tensor.Tensor
	Stride, Pad  int
	name         string

	kmat *tensor.Tensor
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

func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.Kernel, c.Bias} }
func (c *Conv2D) Grads() []*tensor.Tensor  { return []*tensor.Tensor{c.dK, c.dB} }

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
}

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

func (l *ReLU) Name() string { return l.name }

func (l *ReLU) Params() []*tensor.Tensor { return nil }
func (l *ReLU) Grads() []*tensor.Tensor  { return nil }

// MaxPool2D is non-overlapping max pooling with a square window.
type MaxPool2D struct {
	Size int
	name string
}

// NewMaxPool2D returns a max-pooling layer with the given window size
// (stride equals the window size).
func NewMaxPool2D(name string, size int) *MaxPool2D {
	return &MaxPool2D{Size: size, name: name}
}

func (l *MaxPool2D) Name() string { return l.name }

func (l *MaxPool2D) Params() []*tensor.Tensor { return nil }
func (l *MaxPool2D) Grads() []*tensor.Tensor  { return nil }

// GlobalAvgPool reduces (C, H, W) to a length-C vector by spatial averaging,
// as in ResNet's final pooling stage.
type GlobalAvgPool struct {
	name string
}

func (l *GlobalAvgPool) Name() string { return l.name }

func (l *GlobalAvgPool) Params() []*tensor.Tensor { return nil }
func (l *GlobalAvgPool) Grads() []*tensor.Tensor  { return nil }

// Flatten reshapes any input to a vector.
type Flatten struct {
	name string
}

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (l *Flatten) Name() string { return l.name }

func (l *Flatten) Params() []*tensor.Tensor { return nil }
func (l *Flatten) Grads() []*tensor.Tensor  { return nil }

// Dropout randomly zeroes activations during training (inverted dropout:
// survivors are scaled by 1/(1-p) so inference needs no rescaling).
type Dropout struct {
	P    float64
	name string
	rng  *xrand.Rand
}

// NewDropout returns a dropout layer with drop probability p, drawing its
// masks from r. Give every Dropout layer its own stream (r.Split): a training
// step draws a whole batch's masks layer by layer, while the per-sample spec
// the step is tested against draws sample by sample, and the two are the
// same draws only when no two layers share a stream.
func NewDropout(name string, p float64, r *xrand.Rand) *Dropout {
	return &Dropout{P: p, name: name, rng: r}
}

func (l *Dropout) Name() string { return l.name }

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
