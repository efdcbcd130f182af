package nn_test

// Differential property tests: every built-in layer, driven through the
// per-sample spec and the batched arena path (packed GEMM) on identical
// inputs, must produce bitwise-equal outputs — including when fault-injected
// weights poison the network with NaN and ±Inf. This is the equivalence
// contract the N-version voter relies on: a kernel that handles special
// values differently across paths would make the ensemble disagree with
// itself. The external test package lets the poisoning go through
// internal/faultinject (which imports nn).

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

// checkAllPathsAgree runs the arena path and the spec and fails on the first
// bitwise difference.
func checkAllPathsAgree(t *testing.T, net *nn.Network, xs []*tensor.Tensor) {
	t.Helper()
	checkPaths(t, net, xs, false)
}

// checkPaths is checkAllPathsAgree, where with anyNaN set a NaN matches any
// NaN: every other element still bit for bit.
func checkPaths(t *testing.T, net *nn.Network, xs []*tensor.Tensor, anyNaN bool) {
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
	spec := nn.NewSpec(net)
	for i, x := range xs {
		single, err := spec.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if single.Len() != stride {
			t.Fatalf("sample %d: per-sample output has %d elements, batched %d", i, single.Len(), stride)
		}
		for j, v := range single.Data {
			bw := batched.Data[i*stride+j]
			if math.Float32bits(bw) != math.Float32bits(v) && !(anyNaN && bw != bw && v != v) {
				t.Fatalf("sample %d element %d: ForwardBatchArena %v, spec %v", i, j, bw, v)
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

// TestDifferentialPoolFusionInfBias: the inference forward pools a conv's
// raw output before adding its bias, which keeps the bits of the layer order
// for every bias but ±Inf. A window holding +Inf under a −Inf bias reads
// [0, NaN, 0, 0] after the bias and the ReLU, which the pool folds to 0
// (a NaN past the seed never wins), while pooling first would give
// +Inf − Inf = NaN; −Inf seeding a window under a +Inf bias is the reverse.
// Both faults sit in one channel, where a single stuck-at weight never puts
// them, so the fused path must fall back to the unfused order.
func TestDifferentialPoolFusionInfBias(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		name   string
		bias   float32
		window [4]float32 // the first pooling window, row by row
		nan    bool       // the layer order's first output
	}{
		{"+Inf output, -Inf bias", -inf, [4]float32{1, inf, 1, 1}, false},
		{"-Inf output, +Inf bias", inf, [4]float32{-inf, 1, 1, 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(5)
			conv := nn.NewConv2D("conv", 1, 2, 1, 1, 0, r)
			copy(conv.Kernel.Data, []float32{1, 1})
			conv.Bias.Data[0] = tc.bias
			net := &nn.Network{Name: "inf-bias", Layers: []nn.Layer{conv, nn.NewReLU("relu"), nn.NewMaxPool2D("pool", 2)}}
			xs := frankenBatch(2, 9)
			for _, x := range xs {
				x.Data[0], x.Data[1], x.Data[8], x.Data[9] = tc.window[0], tc.window[1], tc.window[2], tc.window[3]
			}
			xs = []*tensor.Tensor{
				{Shape: []int{1, 8, 8}, Data: xs[0].Data[:64]},
				{Shape: []int{1, 8, 8}, Data: xs[1].Data[:64]},
			}
			checkAllPathsAgree(t, net, xs)
			batch, err := nn.Stack(xs)
			if err != nil {
				t.Fatal(err)
			}
			y, err := net.ForwardBatchArena(batch, nn.NewInferenceArena())
			if err != nil {
				t.Fatal(err)
			}
			if v := y.Data[0]; (v != v) != tc.nan || (!tc.nan && v != 0) {
				t.Fatalf("first output %v, want NaN %v (0 otherwise)", v, tc.nan)
			}
		})
	}
}

// FuzzForwardBatchArena fuzzes the equivalence property over seeds, batch
// sizes and poison values, at one fault site or, when poison2 is non-zero,
// two: a second stuck-at weight can pair an Inf in a conv's output with an
// opposite Inf in its bias, which no single fault does (the last seed is one
// such pair, caught at the pool only without the fused path's ±Inf-bias
// fallback). Two sites can also
// meet two NaN payloads — the injected one and an Inf − Inf — in one sum or
// product, and the arena path and the spec do not pin which survives, so
// there a NaN matches any NaN (every other element still bit for bit). With
// train set it fuzzes a training step instead, at the first site only:
// TrainBatch on the fused serving forward — the Dropout layer drawing its
// mask, the residual block recursing — against the spec loop, gradients and
// parameters bit for bit.
func FuzzForwardBatchArena(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(2), false)
	f.Add(uint64(7), uint8(1), uint8(0), uint8(1), false)
	f.Add(uint64(42), uint8(3), uint8(0), uint8(4), false)
	f.Add(uint64(3), uint8(0), uint8(0), uint8(3), true)
	f.Add(uint64(9), uint8(2), uint8(0), uint8(4), true) // fc1 at −Inf
	f.Add(uint64(11), uint8(1), uint8(3), uint8(2), false)
	f.Add(uint64(51), uint8(4), uint8(9), uint8(2), false) // conv1: +Inf weight, −Inf bias, one channel
	f.Fuzz(func(t *testing.T, seed uint64, poison, poison2, bsz uint8, train bool) {
		b := int(bsz)%4 + 1
		xs := frankenBatch(b, seed+1)
		poisoned := func() *nn.Network {
			net := frankenNet(seed)
			sites := []uint8{poison}
			if poison2 != 0 && !train {
				sites = append(sites, poison2-1)
			}
			for i, p := range sites {
				// Layer p mod L; the value turns one step per L, so every
				// layer meets every value.
				nl := len(net.ParamLayers())
				v := poisonValues[(int(p)+int(p)/nl)%len(poisonValues)]
				if _, err := faultinject.StuckAt(net, int(p)%nl, v, xrand.New(seed+2+uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			return net
		}
		if !train {
			// Every prefix of the stack, so that a difference a later
			// layer would swallow (a NaN spreading through every channel)
			// still shows where it starts.
			net := poisoned()
			for n := 1; n <= len(net.Layers); n++ {
				checkPaths(t, &nn.Network{Name: net.Name, Layers: net.Layers[:n]}, xs, poison2 != 0)
			}
			return
		}
		batch := make([]nn.Sample, b)
		for i, x := range xs {
			batch[i] = nn.Sample{X: x, Label: int(seed+uint64(i)) % 5}
		}
		got, want := poisoned(), poisoned()
		gotLoss, err := got.TrainBatch(batch, nn.NewSGD(0.05, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		wantLoss, err := specTrainBatch(want, batch, nn.NewSGD(0.05, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		wg := want.Grads()
		for gi, g := range got.Grads() {
			for j, v := range g.Data {
				if math.Float32bits(v) != math.Float32bits(wg[gi].Data[j]) {
					t.Fatalf("gradient %d[%d] = %v, spec loop %v", gi, j, v, wg[gi].Data[j])
				}
			}
		}
		requireSameTraining(t, 0, got, want, gotLoss, wantLoss)
	})
}
