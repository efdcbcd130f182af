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
// Forward loop (same per-element accumulation order everywhere).
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
	for _, l := range layers {
		x, err = forwardOneBatch(l, x, ar)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// forwardOneBatch dispatches a single layer through the arena, feeding the
// calibration observer and the profiler when they are attached.
func forwardOneBatch(l Layer, x *tensor.Tensor, ar *InferenceArena) (*tensor.Tensor, error) {
	if ar.observer != nil {
		ar.observer(l, x)
	}
	if ar.Profiler != nil {
		return profiledForward(l, x, ar)
	}
	return l.ForwardBatchArena(x, ar)
}
