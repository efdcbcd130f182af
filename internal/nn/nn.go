// Package nn is a small, deterministic neural-network library: the substrate
// standing in for PyTorch in this reproduction. It provides the layers needed
// by the three classifier architectures the paper trains (LeNet, AlexNet,
// ResNet50 — reproduced here as size-reduced variants with the same
// structural diversity), backpropagation with mini-batch gradient
// accumulation, SGD with momentum, and weight snapshots for serialisation
// and fault injection.
//
// The per-sample Forward and Backward methods are the executable spec.
// Serving (ForwardBatchArena), evaluation (Accuracy, ErrorSet) and training
// (TrainBatch) all run batched on the packed GEMM kernels over reused arena
// buffers, and are held to the spec bit for bit.
package nn

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mvml/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward must record
// whatever it needs for the next Backward call; layers are therefore
// stateful and not safe for concurrent use. Inference-only callers pass
// train=false, which skips regularisation noise such as dropout.
//
// Every layer has the per-sample Forward/Backward pair (the executable spec)
// and the batched ForwardBatchArena/backwardBatch pair that serving,
// evaluation and training run, which must agree with the spec bit for bit.
type Layer interface {
	// Name identifies the layer for diagnostics and fault targeting.
	Name() string
	// Forward computes the layer output for a single sample.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients internally.
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient accumulators aligned with Params.
	Grads() []*tensor.Tensor
	// ForwardBatchArena computes the inference output for a batch tensor
	// with a leading batch dimension (B, ...sample shape), writing into
	// buffers borrowed from the arena instead of allocating. It records no
	// backward state, must never mutate its input (residual blocks read it
	// again for the skip path) and must return either the input itself or
	// an arena-owned buffer.
	ForwardBatchArena(x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error)
	// backwardBatch is Backward for a whole mini-batch inside a training
	// step (train.go): given the batch-first input x the layer saw and the
	// gradient g w.r.t. its output, it adds the parameter gradients and
	// returns the gradient w.r.t. x in an arena buffer (or g itself). It
	// must not mutate g — a residual block hands the same g to both paths.
	backwardBatch(x, g *tensor.Tensor, sc *scratch) (*tensor.Tensor, error)
}

// Network is an ordered stack of layers with a human-readable name
// (e.g. "lenet-small").
type Network struct {
	Name   string
	Layers []Layer

	// sc is the private scratch of Accuracy, ErrorSet and TrainBatch,
	// created on first use — the serving path never allocates it.
	sc *scratch
}

// Forward runs a single sample through every layer.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range n.Layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// Backward propagates an output gradient through the stack in reverse.
func (n *Network) Backward(grad *tensor.Tensor) error {
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad, err = n.Layers[i].Backward(grad)
		if err != nil {
			return fmt.Errorf("nn: layer %s backward: %w", n.Layers[i].Name(), err)
		}
	}
	return nil
}

// Predict returns the argmax class for one input sample.
func (n *Network) Predict(x *tensor.Tensor) (int, error) {
	out, err := n.Forward(x, false)
	if err != nil {
		return 0, err
	}
	return out.ArgMax(), nil
}

// Params returns every trainable tensor in the network, in layer order.
func (n *Network) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns every gradient accumulator, aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range n.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// ZeroGrads clears all gradient accumulators.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Len()
	}
	return total
}

// ParamLayer pairs a layer index with its parameter tensors; the fault
// injector uses this to target "layer k" the way PyTorchFI does.
type ParamLayer struct {
	Index  int // position among parameterised layers (0-based)
	Name   string
	Params []*tensor.Tensor
}

// ParamLayers lists the layers that carry trainable parameters, in network
// order. Layer 0 is the first parameterised layer, matching the paper's
// "inject into layer 1" convention up to the off-by-one of their tool.
func (n *Network) ParamLayers() []ParamLayer {
	var out []ParamLayer
	idx := 0
	for _, l := range n.Layers {
		if ps := l.Params(); len(ps) > 0 {
			out = append(out, ParamLayer{Index: idx, Name: l.Name(), Params: ps})
			idx++
		}
	}
	return out
}

// Softmax converts logits to a probability vector (numerically stabilised).
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(logits.Shape...)
	maxv := logits.Data[0]
	for _, v := range logits.Data[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits.Data {
		e := math.Exp(float64(v - maxv))
		out.Data[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out
}

// ErrBadLabel is returned when a class label is outside the logit range.
var ErrBadLabel = errors.New("nn: label out of range")

// SoftmaxCrossEntropy returns the cross-entropy loss for one sample and the
// gradient of the loss w.r.t. the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	if label < 0 || label >= logits.Len() {
		return 0, nil, fmt.Errorf("%w: %d with %d classes", ErrBadLabel, label, logits.Len())
	}
	probs := Softmax(logits)
	p := float64(probs.Data[label])
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(p)
	grad := probs // reuse: grad = probs - onehot(label)
	grad.Data[label]--
	return loss, grad, nil
}

// SGD is stochastic gradient descent with classical momentum and optional L2
// weight decay, the optimiser the paper's training setup uses.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an optimiser with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// Step applies one update to every parameter given its accumulated gradient
// scaled by 1/batchSize, then the caller should zero the gradients.
func (o *SGD) Step(params, grads []*tensor.Tensor, batchSize int) error {
	if len(params) != len(grads) {
		return fmt.Errorf("nn: %d params but %d grads", len(params), len(grads))
	}
	if batchSize <= 0 {
		return fmt.Errorf("nn: non-positive batch size %d", batchSize)
	}
	scale := float32(1 / float64(batchSize))
	lr := float32(o.LR)
	mom := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for i, p := range params {
		g := grads[i]
		if p.Len() != g.Len() {
			return fmt.Errorf("nn: param %d size %d, grad size %d", i, p.Len(), g.Len())
		}
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.New(p.Shape...)
			o.velocity[p] = v
		}
		for j := range p.Data {
			step := g.Data[j]*scale + wd*p.Data[j]
			v.Data[j] = mom*v.Data[j] - lr*step
			p.Data[j] += v.Data[j]
		}
	}
	return nil
}

// Sample is one labelled training example.
type Sample struct {
	X     *tensor.Tensor
	Label int
}

// TrainBatch accumulates gradients over a mini-batch and applies one
// optimiser step. It returns the mean loss over the batch.
func (n *Network) TrainBatch(batch []Sample, opt *SGD) (float64, error) {
	if len(batch) == 0 {
		return 0, errors.New("nn: empty batch")
	}
	return n.trainStep(len(batch), func(i int) *tensor.Tensor { return batch[i].X },
		func(i int, out *tensor.Tensor) (float64, *tensor.Tensor, error) {
			return SoftmaxCrossEntropy(out, batch[i].Label)
		}, opt)
}

// evalChunk is how many samples Accuracy and ErrorSet push through the arena
// at once: the serving batch ceiling, past which the packed GEMM gains nothing.
const evalChunk = 32

// predictAll returns the argmax class of every sample, in a buffer valid
// until the next call. Training, fault injection and RestoreWeights all
// mutate weights in place without telling the network, so the packed weight
// panels are invalidated on entry and repacked once per call: a prediction
// can never come from stale panels.
func (n *Network) predictAll(samples []Sample) ([]int, error) {
	sc := n.scratch()
	sc.ar.InvalidateWeights()
	sc.preds = slices.Grow(sc.preds[:0], len(samples))[:len(samples)]
	for lo := 0; lo < len(samples); lo += evalChunk {
		chunk := samples[lo:min(lo+evalChunk, len(samples))]
		x, err := sc.stack(len(chunk), func(i int) *tensor.Tensor { return chunk[i].X })
		if err != nil {
			return nil, err
		}
		// An empty slice with the capacity for the chunk makes
		// PredictBatchArena write in place, at sc.preds[lo:].
		if _, err := n.PredictBatchArena(x, sc.ar, sc.preds[lo:lo]); err != nil {
			return nil, err
		}
	}
	return sc.preds, nil
}

// Accuracy evaluates top-1 accuracy over a sample set.
func (n *Network) Accuracy(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("nn: empty evaluation set")
	}
	preds, err := n.predictAll(samples)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, s := range samples {
		if preds[i] == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}

// ErrorSet returns the indices of samples the network misclassifies; the
// reliability package intersects these sets to estimate the error-dependency
// factor α (Eq. 8 of the paper).
func (n *Network) ErrorSet(samples []Sample) (map[int]bool, error) {
	preds, err := n.predictAll(samples)
	if err != nil {
		return nil, err
	}
	errs := make(map[int]bool)
	for i, s := range samples {
		if preds[i] != s.Label {
			errs[i] = true
		}
	}
	return errs, nil
}
