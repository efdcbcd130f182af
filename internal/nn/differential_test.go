package nn_test

// Differential property tests: every built-in layer, driven through the
// per-sample Forward path and the batched arena path (packed GEMM) on
// identical inputs, must produce bitwise-equal outputs — including when
// fault-injected weights poison the network with NaN and ±Inf. This is the equivalence contract the N-version voter relies
// on: a kernel that handles special values differently across paths would
// make the ensemble disagree with itself. The external test package lets
// the poisoning go through internal/faultinject (which imports nn).

import (
	"math"
	"testing"

	"mvml/internal/faultinject"
	"mvml/internal/nn"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// frankenNet stacks one instance of every built-in layer type: Center,
// Conv2D, ReLU, MaxPool2D, Residual (with conv body and identity skip),
// GlobalAvgPool, Flatten, Dropout and Dense — and a ReLU behind every layer
// kind the arena path fuses it into (Conv2D, Residual, Dense) and behind one
// it must not (Dropout).
func frankenNet(seed uint64) *nn.Network {
	r := xrand.New(seed)
	return &nn.Network{Name: "franken", Layers: []nn.Layer{
		nn.NewCenter("center", 0.5),
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, r),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool", 2),
		nn.NewResidual("res", nil,
			nn.NewConv2D("res-conv", 4, 4, 3, 1, 1, r),
			nn.NewReLU("res-relu"),
		),
		nn.NewReLU("res-out-relu"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewFlatten("flat"),
		nn.NewDropout("drop", 0.5, r),
		nn.NewReLU("drop-relu"),
		nn.NewDense("fc1", 4, 6, r),
		nn.NewReLU("fc1-relu"),
		nn.NewDense("fc2", 6, 5, r),
	}}
}

// poisonValues cycles through the IEEE special values the fault injector can
// write into weight memory.
var poisonValues = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	1e30, // overflows to Inf through the conv accumulations
}

func frankenBatch(b int, seed uint64) []*tensor.Tensor {
	r := xrand.New(seed)
	xs := make([]*tensor.Tensor, b)
	for i := range xs {
		x := tensor.New(3, 8, 8)
		x.RandomizeUniform(r, 0, 1)
		xs[i] = x
	}
	return xs
}

// checkAllPathsAgree runs both inference paths and fails on the first
// bitwise difference.
func checkAllPathsAgree(t *testing.T, net *nn.Network, xs []*tensor.Tensor) {
	t.Helper()
	batch, err := nn.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := net.ForwardBatchArena(batch, nn.NewInferenceArena())
	if err != nil {
		t.Fatal(err)
	}
	stride := batched.Len() / len(xs)
	for i, x := range xs {
		single, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if single.Len() != stride {
			t.Fatalf("sample %d: per-sample output has %d elements, batched %d", i, single.Len(), stride)
		}
		for j, v := range single.Data {
			bw := batched.Data[i*stride+j]
			if math.Float32bits(bw) != math.Float32bits(v) {
				t.Fatalf("sample %d element %d: ForwardBatchArena %v, Forward %v", i, j, bw, v)
			}
		}
	}
}

// TestDifferentialAllLayersPoisoned drives the franken-network through both
// inference paths with a special value injected into every parameterised
// layer in turn.
func TestDifferentialAllLayersPoisoned(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		net := frankenNet(seed)
		xs := frankenBatch(3, seed+100)
		checkAllPathsAgree(t, net, xs) // healthy baseline
		r := xrand.New(seed + 200)
		for layer := range net.ParamLayers() {
			for _, v := range poisonValues {
				inj, err := faultinject.StuckAt(net, layer, v, r)
				if err != nil {
					t.Fatal(err)
				}
				checkAllPathsAgree(t, net, xs)
				inj.Revert()
			}
		}
	}
}

// TestDifferentialArchitecturesPoisoned repeats the property on the three
// real classifier architectures (deeper stacks, strided convs, projections).
func TestDifferentialArchitecturesPoisoned(t *testing.T) {
	for _, name := range nn.AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			net, err := nn.NewModel(name, 7, xrand.New(uint64(name)))
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(uint64(name) + 1)
			xs := make([]*tensor.Tensor, 3)
			for i := range xs {
				x := tensor.New(nn.InputChannels, nn.InputSize, nn.InputSize)
				x.RandomizeUniform(r, 0, 1)
				xs[i] = x
			}
			layers := net.ParamLayers()
			for li := 0; li < len(layers); li += 2 { // every other layer keeps runtime bounded
				inj, err := faultinject.StuckAt(net, li, float32(math.NaN()), r)
				if err != nil {
					t.Fatal(err)
				}
				checkAllPathsAgree(t, net, xs)
				inj.Revert()
			}
		})
	}
}

// FuzzForwardBatchArena fuzzes the equivalence property over seeds, batch
// sizes and poison values.
func FuzzForwardBatchArena(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2))
	f.Add(uint64(7), uint8(1), uint8(1))
	f.Add(uint64(42), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, poison, bsz uint8) {
		net := frankenNet(seed)
		b := int(bsz)%4 + 1
		xs := frankenBatch(b, seed+1)
		r := xrand.New(seed + 2)
		layers := net.ParamLayers()
		layer := int(poison) % len(layers)
		if _, err := faultinject.StuckAt(net, layer, poisonValues[int(poison)%len(poisonValues)], r); err != nil {
			t.Fatal(err)
		}
		checkAllPathsAgree(t, net, xs)
	})
}
