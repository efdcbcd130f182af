package nn

// The per-sample executable spec: every layer's forward and backward written
// one sample at a time as the plainest loops — tensor.MatMul, Im2Col and
// Col2Im for the convolution and scalar loops for the rest. Serving,
// evaluation and training all run forwardBatchLayers and backwardBatch; the
// tests hold them to this spec bit for bit. Production layers keep no state
// between a forward and its backward, so the spec keeps what its backward
// needs in a record of its own per layer.

import (
	"fmt"

	"mvml/internal/tensor"
)

// Spec runs the per-sample spec over one network. Forward records, per
// layer, what the next Backward reads; like a network on the spec path it is
// not safe for concurrent use.
type Spec struct {
	net *Network
	st  map[Layer]*specState
}

// specState is one layer's record between Forward and Backward.
type specState struct {
	x      *tensor.Tensor // Dense: a copy of the input
	cols   *tensor.Tensor // Conv2D: the input's im2col matrix
	shape  []int          // Conv2D, MaxPool2D, GlobalAvgPool, Flatten: the input shape
	relu   []bool         // ReLU: where the input passed
	keep   []float32      // Dropout: the mask, 0 or the keep scale
	argmax []int          // MaxPool2D: each output's source element
}

// NewSpec returns the spec of net.
func NewSpec(net *Network) *Spec {
	return &Spec{net: net, st: make(map[Layer]*specState)}
}

// specOf is the spec of a one-layer network.
func specOf(l Layer) *Spec { return NewSpec(&Network{Name: l.Name(), Layers: []Layer{l}}) }

func (s *Spec) state(l Layer) *specState {
	st := s.st[l]
	if st == nil {
		st = &specState{}
		s.st[l] = st
	}
	return st
}

// Forward runs a single sample through every layer; train draws dropout
// masks.
func (s *Spec) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range s.net.Layers {
		x, err = s.forward(l, x, train)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// Backward propagates an output gradient through the stack in reverse,
// accumulating parameter gradients in the network's Grads.
func (s *Spec) Backward(grad *tensor.Tensor) error {
	var err error
	for i := len(s.net.Layers) - 1; i >= 0; i-- {
		l := s.net.Layers[i]
		if grad, err = s.backward(l, grad); err != nil {
			return fmt.Errorf("nn: layer %s backward: %w", l.Name(), err)
		}
	}
	return nil
}

// Predict returns the argmax class of one sample.
func (s *Spec) Predict(x *tensor.Tensor) (int, error) {
	out, err := s.Forward(x, false)
	if err != nil {
		return 0, err
	}
	return argmax(out.Data), nil
}

func (s *Spec) forward(l Layer, x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	st := s.state(l)
	switch l := l.(type) {
	case *Center:
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] -= l.Offset
		}
		return y, nil
	case *Dense:
		return specDenseForward(l, st, x)
	case *Conv2D:
		return specConvForward(l, st, x)
	case *ReLU:
		y := x.Clone()
		st.relu = make([]bool, y.Len())
		// NaN propagates (v <= 0 is false for NaN): zeroing it would hide
		// fault-injected corruption from the voter.
		for i, v := range y.Data {
			st.relu[i] = v > 0
			if v <= 0 {
				y.Data[i] = 0
			}
		}
		return y, nil
	case *MaxPool2D:
		return specMaxPoolForward(l, st, x)
	case *GlobalAvgPool:
		if len(x.Shape) != 3 {
			return nil, fmt.Errorf("gap %s: want (C,H,W) input, got %v", l.name, x.Shape)
		}
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		st.shape = x.Shape
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
	case *Flatten:
		st.shape = x.Shape
		return x.Reshape(x.Len())
	case *Dropout:
		st.keep = make([]float32, x.Len())
		if !train || l.P <= 0 {
			for i := range st.keep {
				st.keep[i] = 1
			}
			return x, nil
		}
		y := x.Clone()
		keep := float32(1 / (1 - l.P))
		for i := range y.Data {
			if l.rng.Float64() < l.P {
				st.keep[i], y.Data[i] = 0, 0
			} else {
				st.keep[i] = keep
				y.Data[i] *= keep
			}
		}
		return y, nil
	case *Residual:
		y := x
		var err error
		for _, b := range l.Body {
			if y, err = s.forward(b, y, train); err != nil {
				return nil, fmt.Errorf("residual %s body %s: %w", l.name, b.Name(), err)
			}
		}
		skip := x
		if l.Proj != nil {
			if skip, err = s.forward(l.Proj, x, train); err != nil {
				return nil, fmt.Errorf("residual %s proj: %w", l.name, err)
			}
		}
		out := y.Clone()
		if err := out.AddInPlace(skip); err != nil {
			return nil, fmt.Errorf("residual %s: body and skip shapes incompatible: %w", l.name, err)
		}
		return out, nil
	}
	return nil, fmt.Errorf("spec: no per-sample forward for layer %s (%T)", l.Name(), l)
}

func (s *Spec) backward(l Layer, grad *tensor.Tensor) (*tensor.Tensor, error) {
	st := s.st[l]
	if st == nil {
		return nil, fmt.Errorf("%s: Backward before Forward", l.Name())
	}
	switch l := l.(type) {
	case *Center:
		return grad, nil
	case *Dense:
		return specDenseBackward(l, st, grad)
	case *Conv2D:
		return specConvBackward(l, st, grad)
	case *ReLU:
		if grad.Len() != len(st.relu) {
			return nil, fmt.Errorf("relu %s: grad size %d, mask size %d", l.name, grad.Len(), len(st.relu))
		}
		dx := grad.Clone()
		for i := range dx.Data {
			if !st.relu[i] {
				dx.Data[i] = 0
			}
		}
		return dx, nil
	case *MaxPool2D:
		if grad.Len() != len(st.argmax) {
			return nil, fmt.Errorf("maxpool %s: grad size %d, want %d", l.name, grad.Len(), len(st.argmax))
		}
		dx := tensor.New(st.shape...)
		for i, src := range st.argmax {
			dx.Data[src] += grad.Data[i]
		}
		return dx, nil
	case *GlobalAvgPool:
		c, h, w := st.shape[0], st.shape[1], st.shape[2]
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
	case *Flatten:
		return grad.Reshape(st.shape...)
	case *Dropout:
		if grad.Len() != len(st.keep) {
			return nil, fmt.Errorf("dropout %s: grad size %d, mask size %d", l.name, grad.Len(), len(st.keep))
		}
		dx := grad.Clone()
		for i := range dx.Data {
			dx.Data[i] *= st.keep[i]
		}
		return dx, nil
	case *Residual:
		bodyGrad := grad
		var err error
		for i := len(l.Body) - 1; i >= 0; i-- {
			if bodyGrad, err = s.backward(l.Body[i], bodyGrad); err != nil {
				return nil, fmt.Errorf("residual %s body backward: %w", l.name, err)
			}
		}
		skipGrad := grad
		if l.Proj != nil {
			if skipGrad, err = s.backward(l.Proj, grad); err != nil {
				return nil, fmt.Errorf("residual %s proj backward: %w", l.name, err)
			}
		}
		dx := bodyGrad.Clone()
		if err := dx.AddInPlace(skipGrad); err != nil {
			return nil, fmt.Errorf("residual %s: gradient shapes incompatible: %w", l.name, err)
		}
		return dx, nil
	}
	return nil, fmt.Errorf("spec: no per-sample backward for layer %s (%T)", l.Name(), l)
}

func specDenseForward(d *Dense, st *specState, x *tensor.Tensor) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	if x.Len() != in {
		return nil, fmt.Errorf("dense %s: input size %d, want %d", d.name, x.Len(), in)
	}
	// Clone: retaining the caller's tensor by reference would corrupt the
	// weight gradient if the caller reuses its input buffer before Backward.
	st.x = x.Clone()
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

func specDenseBackward(d *Dense, st *specState, grad *tensor.Tensor) (*tensor.Tensor, error) {
	out, in := d.W.Shape[0], d.W.Shape[1]
	if grad.Len() != out {
		return nil, fmt.Errorf("dense %s: grad size %d, want %d", d.name, grad.Len(), out)
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
			dwRow[i] += g * st.x.Data[i]
			dx.Data[i] += g * wRow[i]
		}
	}
	return dx, nil
}

func specConvForward(c *Conv2D, st *specState, x *tensor.Tensor) (*tensor.Tensor, error) {
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
	st.cols, st.shape = cols, x.Shape
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

func specConvBackward(c *Conv2D, st *specState, grad *tensor.Tensor) (*tensor.Tensor, error) {
	outC, inC := c.Kernel.Shape[0], c.Kernel.Shape[1]
	kh, kw := c.Kernel.Shape[2], c.Kernel.Shape[3]
	spatial := st.cols.Shape[1]
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
	dk, err := tensor.MatMulTransB(gmat, st.cols)
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
	return tensor.Col2Im(dcols, inC, st.shape[1], st.shape[2], kh, kw, c.Stride, c.Pad)
}

func specMaxPoolForward(l *MaxPool2D, st *specState, x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 3 {
		return nil, fmt.Errorf("maxpool %s: want (C,H,W) input, got %v", l.name, x.Shape)
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	s := l.Size
	oh, ow := h/s, w/s
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("maxpool %s: input %v smaller than window %d", l.name, x.Shape, s)
	}
	st.shape = x.Shape
	y := tensor.New(c, oh, ow)
	st.argmax = make([]int, y.Len())
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Seed with the window's first element: a -Inf/-1 seed never
				// updates on an all-NaN window (every compare is false) and
				// Backward then indexes dx.Data[-1].
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
				st.argmax[oi] = bi
				oi++
			}
		}
	}
	return y, nil
}
