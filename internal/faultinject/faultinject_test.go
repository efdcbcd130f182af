package faultinject

import (
	"math"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

func testNet(t *testing.T) *nn.Network {
	t.Helper()
	return nn.NewLeNetSmall(10, xrand.New(1))
}

func TestRandomWeightInjChangesExactlyOneWeight(t *testing.T) {
	net := testNet(t)
	before := net.CloneWeights()
	inj, err := RandomWeightInj(net, 0, -10, 30, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	params := net.Params()
	for i, p := range params {
		for j := range p.Data {
			if p.Data[j] != before[i][j] {
				changed++
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d weights changed, want 1", changed)
	}
	if inj.New < -10 || inj.New >= 30 {
		t.Fatalf("injected value %v outside [-10, 30)", inj.New)
	}
	if inj.LayerIndex != 0 {
		t.Fatalf("injection targeted layer %d", inj.LayerIndex)
	}
}

func TestRandomWeightInjTargetsRequestedLayer(t *testing.T) {
	net := testNet(t)
	layers := net.ParamLayers()
	target := 2
	inj, err := RandomWeightInj(net, target, 0, 1, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if inj.LayerName != layers[target].Name {
		t.Fatalf("injected into %q, want %q", inj.LayerName, layers[target].Name)
	}
	// The changed value must live in one of that layer's tensors.
	found := false
	for _, p := range layers[target].Params {
		for _, v := range p.Data {
			if v == inj.New {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("injected value not found in target layer")
	}
}

func TestRevertRestoresWeight(t *testing.T) {
	net := testNet(t)
	before := net.CloneWeights()
	inj, err := RandomWeightInj(net, 1, -10, 30, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	inj.Revert()
	params := net.Params()
	for i, p := range params {
		for j := range p.Data {
			if p.Data[j] != before[i][j] {
				t.Fatal("revert did not restore original weights")
			}
		}
	}
	inj.Revert() // double revert is harmless
}

func TestRandomWeightInjErrors(t *testing.T) {
	net := testNet(t)
	if _, err := RandomWeightInj(net, 99, 0, 1, xrand.New(1)); err == nil {
		t.Fatal("expected error for bad layer")
	}
	if _, err := RandomWeightInj(net, 0, 5, 5, xrand.New(1)); err == nil {
		t.Fatal("expected error for empty range")
	}
}

func TestBitFlipChangesBitPattern(t *testing.T) {
	net := testNet(t)
	inj, err := BitFlip(net, 0, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	oldBits := math.Float32bits(inj.Old)
	newBits := math.Float32bits(inj.New)
	diff := oldBits ^ newBits
	if diff == 0 {
		t.Fatal("bit flip changed nothing")
	}
	if diff&(diff-1) != 0 {
		t.Fatalf("more than one bit flipped: %032b", diff)
	}
}

func TestStuckAt(t *testing.T) {
	net := testNet(t)
	inj, err := StuckAt(net, 0, 0, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if inj.New != 0 {
		t.Fatalf("stuck-at value %v, want 0", inj.New)
	}
}

func TestGaussianWeightNoisePerturbsWholeLayer(t *testing.T) {
	net := testNet(t)
	pl := net.ParamLayers()[0]
	var layerSize int
	for _, p := range pl.Params {
		layerSize += p.Len()
	}
	injs, err := GaussianWeightNoise(net, 0, 0.1, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) != layerSize {
		t.Fatalf("%d injections, want %d", len(injs), layerSize)
	}
	RevertAll(injs)
	// After revert, all weights should equal the originals.
	for _, inj := range injs {
		if inj.target.Data[inj.Offset] != inj.Old {
			t.Fatal("RevertAll did not restore weights")
		}
	}
}

func TestGaussianWeightNoiseRejectsBadSigma(t *testing.T) {
	net := testNet(t)
	if _, err := GaussianWeightNoise(net, 0, 0, xrand.New(1)); err == nil {
		t.Fatal("expected error for sigma 0")
	}
}

// syntheticEval builds samples a fresh LeNet classifies arbitrarily; we only
// need a deterministic evaluation set for calibration tests.
func syntheticEval(n int, r *xrand.Rand) []nn.Sample {
	samples := make([]nn.Sample, n)
	for i := range samples {
		x := tensor.New(nn.InputChannels, nn.InputSize, nn.InputSize)
		x.RandomizeUniform(r, 0, 1)
		samples[i] = nn.Sample{X: x, Label: i % 10}
	}
	return samples
}

func TestCalibrateCompromiseFindsBand(t *testing.T) {
	net := testNet(t)
	r := xrand.New(9)
	eval := syntheticEval(40, r)
	baseAcc, err := net.Accuracy(eval)
	if err != nil {
		t.Fatal(err)
	}
	// A band that includes the base accuracy must be reachable: even a
	// harmless injection lands in it.
	res, err := CalibrateCompromise(net, eval, 0, -0.01, 0.01, 0, 1, 50, r)
	if err != nil {
		t.Fatalf("calibration failed (base acc %v): %v", baseAcc, err)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("calibrated accuracy %v", res.Accuracy)
	}
	if len(res.Applied) != 1 {
		t.Fatalf("%d injections applied, want 1", len(res.Applied))
	}
}

func TestCalibrateCompromiseUnreachableBandRestoresModel(t *testing.T) {
	net := testNet(t)
	r := xrand.New(10)
	eval := syntheticEval(30, r)
	before := net.CloneWeights()
	// Accuracy > 1 is impossible, so calibration must fail and restore.
	_, err := CalibrateCompromise(net, eval, 0, -10, 30, 1.5, 2.0, 5, r)
	if err == nil {
		t.Fatal("expected calibration failure")
	}
	params := net.Params()
	for i, p := range params {
		for j := range p.Data {
			if p.Data[j] != before[i][j] {
				t.Fatal("failed calibration left the model modified")
			}
		}
	}
}

func TestCalibrateCompromiseBadBand(t *testing.T) {
	net := testNet(t)
	if _, err := CalibrateCompromise(net, nil, 0, 0, 1, 0.9, 0.1, 5, xrand.New(1)); err == nil {
		t.Fatal("expected error for inverted band")
	}
}

func TestInjectionString(t *testing.T) {
	net := testNet(t)
	inj, err := RandomWeightInj(net, 0, -1, 1, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if inj.String() == "" {
		t.Fatal("empty injection description")
	}
}
