package nn

import (
	"errors"
	"fmt"
	"slices"

	"mvml/internal/tensor"
)

// Stack copies per-sample tensors of identical shape into one batch tensor
// with a leading batch dimension.
func Stack(samples []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(samples) == 0 {
		return nil, errors.New("nn: cannot stack an empty batch")
	}
	out := tensor.New(append([]int{len(samples)}, samples[0].Shape...)...)
	if err := stackInto(out, len(samples), func(i int) *tensor.Tensor { return samples[i] }); err != nil {
		return nil, err
	}
	return out, nil
}

// stackInto copies the n samples sample(0..n-1) into the batch-first x,
// refusing any sample whose shape is not the first one's: a (24, 24, 3)
// image has the element count of a (3, 24, 24) one, and is not one.
func stackInto(x *tensor.Tensor, n int, sample func(i int) *tensor.Tensor) error {
	first := sample(0)
	stride := first.Len()
	for i := 0; i < n; i++ {
		s := sample(i)
		if !slices.Equal(s.Shape, first.Shape) {
			return fmt.Errorf("nn: sample %d has shape %v, the batch wants %v", i, s.Shape, first.Shape)
		}
		copy(x.Data[i*stride:(i+1)*stride], s.Data)
	}
	return nil
}

// forwardBatchLayers pushes a batch tensor through a layer stack on the arena
// path — the one forward, of serving, evaluation and training alike,
// bitwise identical to running the samples one at a time (same per-element
// accumulation order everywhere). A ReLU right after a Conv2D, Dense or
// Residual is folded into that layer's output pass and not dispatched on its
// own.
func forwardBatchLayers(layers []Layer, x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	if ar == nil {
		return nil, errors.New("nn: batched inference needs an InferenceArena, got nil")
	}
	if len(x.Shape) < 2 {
		return nil, fmt.Errorf("nn: batched input wants a leading batch dimension, got shape %v", x.Shape)
	}
	if x.Shape[0] == 0 {
		return nil, fmt.Errorf("nn: batched input is an empty batch, shape %v", x.Shape)
	}
	var err error
	for i := 0; i < len(layers); i++ {
		l := layers[i]
		var relu *ReLU
		if _, ok := l.(reluFuser); ok && i+1 < len(layers) {
			if relu, ok = layers[i+1].(*ReLU); ok {
				i++
			}
		}
		x, err = forwardOneBatch(l, x, ar, relu)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// reluFuser is a layer whose output pass can also apply the ReLU that
// follows it: forwardArena(x, ar, false) is ForwardBatchArena.
type reluFuser interface {
	forwardArena(x *tensor.Tensor, ar *InferenceArena, relu bool) (*tensor.Tensor, error)
}

// forwardOneBatch dispatches a single layer through the arena, fused with
// relu when that is non-nil, feeding the observer and the profiler when they
// are attached. The observer sees l's input, and then relu's output: a fused
// ReLU's input is never written.
func forwardOneBatch(l Layer, x *tensor.Tensor, ar *InferenceArena, relu *ReLU) (*tensor.Tensor, error) {
	if ar.observer != nil {
		ar.observer(l, x)
	}
	var y *tensor.Tensor
	var err error
	if ar.Profiler != nil {
		y, err = profiledForward(l, x, ar, relu)
	} else {
		y, err = dispatch(l, x, ar, relu)
	}
	if err == nil && relu != nil && ar.observer != nil {
		ar.observer(relu, y)
	}
	return y, err
}

// dispatch runs l alone, or l with the ReLU forwardBatchLayers fused into it.
func dispatch(l Layer, x *tensor.Tensor, ar *InferenceArena, relu *ReLU) (*tensor.Tensor, error) {
	if relu != nil {
		return l.(reluFuser).forwardArena(x, ar, true)
	}
	return l.ForwardBatchArena(x, ar)
}
