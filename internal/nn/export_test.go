package nn

import "mvml/internal/tensor"

// SoftmaxCrossEntropy returns the cross-entropy loss for one sample and the
// gradient of the loss w.r.t. the logits: the spec loop's loss.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	grad := tensor.New(logits.Shape...)
	loss, err := softmaxCrossEntropyInto(logits, grad, label)
	if err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// NewGlobalAvgPool returns a global average pooling layer; no model builds
// one, the tests' networks do.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// argmax returns the index of the largest element (first occurrence).
func argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}
