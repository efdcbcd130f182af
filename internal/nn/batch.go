package nn

import (
	"errors"
	"fmt"

	"mvml/internal/tensor"
)

// Stack copies per-sample tensors of identical shape into one batch tensor
// with a leading batch dimension.
func Stack(samples []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(samples) == 0 {
		return nil, errors.New("nn: cannot stack an empty batch")
	}
	first := samples[0]
	out := tensor.New(append([]int{len(samples)}, first.Shape...)...)
	stride := first.Len()
	for i, s := range samples {
		if s.Len() != stride {
			return nil, fmt.Errorf("nn: sample %d has %d elements, batch wants %d", i, s.Len(), stride)
		}
		copy(out.Data[i*stride:(i+1)*stride], s.Data)
	}
	return out, nil
}

// forwardBatchLayers pushes a batch tensor through a layer stack on the arena
// path — the one batched inference path, bitwise identical to a per-sample
// Forward loop (same per-element accumulation order everywhere). A ReLU right
// after a Conv2D, Dense or Residual is folded into that layer's output pass
// and not dispatched on its own.
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
// relu when that is non-nil, feeding the calibration observer and the
// profiler when they are attached. The observer sees l only: a fused ReLU's
// input is never written.
func forwardOneBatch(l Layer, x *tensor.Tensor, ar *InferenceArena, relu *ReLU) (*tensor.Tensor, error) {
	if ar.observer != nil {
		ar.observer(l, x)
	}
	if ar.Profiler != nil {
		return profiledForward(l, x, ar, relu)
	}
	return dispatch(l, x, ar, relu)
}

// dispatch runs l alone, or l with the ReLU forwardBatchLayers fused into it.
func dispatch(l Layer, x *tensor.Tensor, ar *InferenceArena, relu *ReLU) (*tensor.Tensor, error) {
	if relu != nil {
		return l.(reluFuser).forwardArena(x, ar, true)
	}
	return l.ForwardBatchArena(x, ar)
}
