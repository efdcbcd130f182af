// Package faultinject perturbs trained neural networks at run time, playing
// the role PyTorchFI plays in the paper: manufacturing "compromised" model
// versions whose behaviour mimics transient hardware faults (bit flips,
// stuck-at defects) or attacks on the ML framework (weight corruption). All
// injections record what they changed so they can be reverted — which is
// exactly what the rejuvenation mechanism does when it reloads a module from
// a safe memory location.
package faultinject

import (
	"errors"
	"fmt"
	"math"

	"mvml/internal/nn"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// Injection records a single applied weight perturbation.
type Injection struct {
	LayerIndex  int     // parameterised-layer index (0-based)
	LayerName   string  // layer name for diagnostics
	TensorIndex int     // which parameter tensor within the layer
	Offset      int     // flat element offset within the tensor
	Old, New    float32 // value before and after

	target *tensor.Tensor
}

func (inj Injection) String() string {
	return fmt.Sprintf("layer %d (%s) tensor %d[%d]: %v -> %v",
		inj.LayerIndex, inj.LayerName, inj.TensorIndex, inj.Offset, inj.Old, inj.New)
}

// Revert undoes the injection. Reverting twice is harmless.
func (inj Injection) Revert() {
	if inj.target != nil {
		inj.target.Data[inj.Offset] = inj.Old
	}
}

// ErrNoSuchLayer is returned when the targeted parameterised layer does not
// exist.
var ErrNoSuchLayer = errors.New("faultinject: no such parameterised layer")

// layerAt returns the parameterised layer with the given index.
func layerAt(net *nn.Network, layer int) (nn.ParamLayer, error) {
	layers := net.ParamLayers()
	if layer < 0 || layer >= len(layers) {
		return nn.ParamLayer{}, fmt.Errorf("%w: %d (network %s has %d)",
			ErrNoSuchLayer, layer, net.Name, len(layers))
	}
	return layers[layer], nil
}

// pickWeight selects a uniformly random element of a uniformly random
// parameter tensor of the layer (weights and biases both eligible, matching
// PyTorchFI's weight-space addressing).
func pickWeight(pl nn.ParamLayer, r *xrand.Rand) (int, *tensor.Tensor, int) {
	total := 0
	for _, p := range pl.Params {
		total += p.Len()
	}
	k := r.Intn(total)
	for ti, p := range pl.Params {
		if k < p.Len() {
			return ti, p, k
		}
		k -= p.Len()
	}
	// Unreachable: k < total by construction.
	last := len(pl.Params) - 1
	return last, pl.Params[last], pl.Params[last].Len() - 1
}

// RandomWeightInj replaces one random weight of the given parameterised
// layer with a uniform value in [minVal, maxVal) — the analog of
// PyTorchFI's random_weight_inj(layer, min, max) that the paper uses with
// (1, -10, 30) for classification and (-100, 300) for the YOLO detectors.
func RandomWeightInj(net *nn.Network, layer int, minVal, maxVal float64, r *xrand.Rand) (Injection, error) {
	if maxVal <= minVal {
		return Injection{}, fmt.Errorf("faultinject: empty value range [%v, %v)", minVal, maxVal)
	}
	pl, err := layerAt(net, layer)
	if err != nil {
		return Injection{}, err
	}
	ti, p, off := pickWeight(pl, r)
	inj := Injection{
		LayerIndex:  layer,
		LayerName:   pl.Name,
		TensorIndex: ti,
		Offset:      off,
		Old:         p.Data[off],
		New:         float32(r.Uniform(minVal, maxVal)),
		target:      p,
	}
	p.Data[off] = inj.New
	return inj, nil
}

// BitFlip flips one uniformly random bit of one random weight of the layer,
// modelling a single-event upset in weight memory.
func BitFlip(net *nn.Network, layer int, r *xrand.Rand) (Injection, error) {
	pl, err := layerAt(net, layer)
	if err != nil {
		return Injection{}, err
	}
	ti, p, off := pickWeight(pl, r)
	bit := uint(r.Intn(32))
	old := p.Data[off]
	flipped := math.Float32frombits(math.Float32bits(old) ^ (1 << bit))
	inj := Injection{
		LayerIndex:  layer,
		LayerName:   pl.Name,
		TensorIndex: ti,
		Offset:      off,
		Old:         old,
		New:         flipped,
		target:      p,
	}
	p.Data[off] = flipped
	return inj, nil
}

// StuckAt forces one random weight of the layer to a fixed value, modelling
// a permanent stuck-at defect.
func StuckAt(net *nn.Network, layer int, value float32, r *xrand.Rand) (Injection, error) {
	pl, err := layerAt(net, layer)
	if err != nil {
		return Injection{}, err
	}
	ti, p, off := pickWeight(pl, r)
	inj := Injection{
		LayerIndex:  layer,
		LayerName:   pl.Name,
		TensorIndex: ti,
		Offset:      off,
		Old:         p.Data[off],
		New:         value,
		target:      p,
	}
	p.Data[off] = value
	return inj, nil
}

// GaussianWeightNoise adds N(0, sigma) noise to every weight of the layer,
// modelling broader memory corruption (e.g. a rowhammer spray). It returns
// one Injection per perturbed element; Revert them in any order to restore.
func GaussianWeightNoise(net *nn.Network, layer int, sigma float64, r *xrand.Rand) ([]Injection, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("faultinject: non-positive sigma %v", sigma)
	}
	pl, err := layerAt(net, layer)
	if err != nil {
		return nil, err
	}
	var injs []Injection
	for ti, p := range pl.Params {
		for off := range p.Data {
			old := p.Data[off]
			p.Data[off] = old + float32(r.Normal(0, sigma))
			injs = append(injs, Injection{
				LayerIndex:  layer,
				LayerName:   pl.Name,
				TensorIndex: ti,
				Offset:      off,
				Old:         old,
				New:         p.Data[off],
				target:      p,
			})
		}
	}
	return injs, nil
}

// RevertAll undoes a batch of injections.
func RevertAll(injs []Injection) {
	for _, inj := range injs {
		inj.Revert()
	}
}

// CalibrationResult describes a compromise calibrated to an accuracy band.
type CalibrationResult struct {
	Seed     uint64
	Accuracy float64
	Applied  []Injection
}

// CalibrateCompromise searches injection seeds until a single
// RandomWeightInj into the given layer drops the model's accuracy on the
// evaluation set into [minAcc, maxAcc] — reproducing the paper's per-model
// seed search (seeds 5, 183, 34) that produced compromised versions "with
// similar (reduced) accuracy". The successful injection is left applied;
// failed attempts are reverted. If no seed in [0, maxTries) lands in the
// band, the model is left unmodified and an error is returned.
func CalibrateCompromise(
	net *nn.Network,
	eval []nn.Sample,
	layer int,
	minVal, maxVal float64,
	minAcc, maxAcc float64,
	maxTries uint64,
	base *xrand.Rand,
) (CalibrationResult, error) {
	if minAcc > maxAcc {
		return CalibrationResult{}, fmt.Errorf("faultinject: empty accuracy band [%v, %v]", minAcc, maxAcc)
	}
	for seed := uint64(0); seed < maxTries; seed++ {
		r := base.Split("calibrate", seed)
		inj, err := RandomWeightInj(net, layer, minVal, maxVal, r)
		if err != nil {
			return CalibrationResult{}, err
		}
		acc, err := net.Accuracy(eval)
		if err != nil {
			inj.Revert()
			return CalibrationResult{}, err
		}
		if acc >= minAcc && acc <= maxAcc {
			return CalibrationResult{Seed: seed, Accuracy: acc, Applied: []Injection{inj}}, nil
		}
		inj.Revert()
	}
	return CalibrationResult{}, fmt.Errorf(
		"faultinject: no seed in [0,%d) drops accuracy into [%v, %v]", maxTries, minAcc, maxAcc)
}
