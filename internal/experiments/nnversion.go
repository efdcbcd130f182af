package experiments

import (
	"errors"
	"fmt"

	"mvml/internal/core"
	"mvml/internal/nn"
	"mvml/internal/tensor"
)

// NNVersion adapts a trained neural network to core.Version. The
// pristine weights are snapshotted at construction — the "safe memory
// location" (§IV) rejuvenation reloads from — and Compromise applies a
// caller-supplied fault (typically faultinject.RandomWeightInj).
type NNVersion struct {
	net      *nn.Network
	pristine [][]float32
	// compromiseFn degrades the live network; it runs on every H→C event.
	compromiseFn func(*nn.Network) error
}

var _ core.Version[*tensor.Tensor, int] = (*NNVersion)(nil)

// NewNNVersion wraps net. compromiseFn may be nil for versions that are
// never degraded in place (e.g. overhead measurements).
func NewNNVersion(net *nn.Network, compromiseFn func(*nn.Network) error) (*NNVersion, error) {
	if net == nil {
		return nil, errors.New("experiments: nil network")
	}
	return &NNVersion{
		net:          net,
		pristine:     net.CloneWeights(),
		compromiseFn: compromiseFn,
	}, nil
}

// Name implements core.Version.
func (v *NNVersion) Name() string { return v.net.Name }

// Infer implements core.Version.
func (v *NNVersion) Infer(x *tensor.Tensor) (int, error) {
	return v.net.Predict(x)
}

// Compromise implements core.Version by applying the configured fault to the
// live weights.
func (v *NNVersion) Compromise() error {
	if v.compromiseFn == nil {
		return nil
	}
	if err := v.compromiseFn(v.net); err != nil {
		return fmt.Errorf("experiments: fault injection into %s: %w", v.net.Name, err)
	}
	return nil
}

// Restore implements core.Version by reloading the pristine weights.
func (v *NNVersion) Restore() error {
	return v.net.RestoreWeights(v.pristine)
}

// Network exposes the wrapped network for evaluation harnesses.
func (v *NNVersion) Network() *nn.Network { return v.net }
