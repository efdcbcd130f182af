package nn_test

// Training-equivalence tests. The per-sample spec (nn.Spec: Forward in
// training mode, then Backward) is the executable spec of a training step;
// specTrainBatch below is the loop over it that TrainBatch is held to, bit
// for bit, and the weight hashes were committed from that loop before
// TrainBatch moved off it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// specTrainBatch is TrainBatch on the per-sample spec: gradients accumulate
// sample by sample in batch order, then one SGD step.
func specTrainBatch(net *nn.Network, batch []nn.Sample, opt *nn.SGD) (float64, error) {
	if len(batch) == 0 {
		return 0, errors.New("empty batch")
	}
	for _, g := range net.Grads() {
		g.Zero()
	}
	spec := nn.NewSpec(net)
	var total float64
	for _, s := range batch {
		out, err := spec.Forward(s.X, true)
		if err != nil {
			return 0, err
		}
		l, grad, err := nn.SoftmaxCrossEntropy(out, s.Label)
		if err != nil {
			return 0, err
		}
		total += l
		if err := spec.Backward(grad); err != nil {
			return 0, err
		}
	}
	if err := opt.Step(net.Params(), net.Grads(), len(batch)); err != nil {
		return 0, err
	}
	return total / float64(len(batch)), nil
}

type trainStep func(net *nn.Network, batch []nn.Sample, opt *nn.SGD) (float64, error)

func viaTrainBatch(net *nn.Network, batch []nn.Sample, opt *nn.SGD) (float64, error) {
	return net.TrainBatch(batch, opt)
}

// hashBatches cuts steps mini-batches of the given size out of the golden
// corpus, striding through it so every batch mixes classes.
func hashBatches(t testing.TB, steps, size int) [][]nn.Sample {
	samples := goldenDataset(t)
	batches := make([][]nn.Sample, steps)
	for s := range batches {
		for i := 0; i < size; i++ {
			batches[s] = append(batches[s], samples[(s*size+i)*13%len(samples)])
		}
	}
	return batches
}

// trainAndHash runs the batches through step on a fresh goldenNet and hashes
// every returned loss and every trained parameter, bit for bit.
func trainAndHash(t testing.TB, name nn.ModelName, batches [][]nn.Sample, step trainStep) string {
	t.Helper()
	net := goldenNet(t, name)
	opt := nn.NewSGD(0.04, 0.9)
	opt.WeightDecay = 1e-4
	h := sha256.New()
	var word [8]byte
	for _, batch := range batches {
		loss, err := step(net, batch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%v: non-finite loss %v: the hash would pin garbage", name, loss)
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(loss))
		h.Write(word[:])
	}
	for _, p := range net.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(word[:4], math.Float32bits(v))
			h.Write(word[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainedWeightHashes are the losses and parameters of the three models after
// six optimiser steps of sixteen samples from goldenNet's seed, taken from
// the per-sample loop (TrainBatch as it stood at aee71e6). They never change:
// a training step that re-associates one gradient sum fails here.
var trainedWeightHashes = map[nn.ModelName]string{
	nn.ModelAlexNet: "965c0952ee9a42e2210c9db4d3ded31647fb729ab8bfee694dc625252d022619",
	nn.ModelResNet:  "4fc1fd6490d413758f1801b499e930c115897549385a8833494da8c3a2b98a65",
	nn.ModelLeNet:   "33b2c94756cd55dea4b16a13239d73794dcac31f65588df03d9c63ee7cdf673c",
}

func TestTrainedWeightHash(t *testing.T) {
	batches := hashBatches(t, 6, 16)
	for _, name := range nn.AllModels() {
		want := trainedWeightHashes[name]
		if got := trainAndHash(t, name, batches, viaTrainBatch); got != want {
			t.Errorf("%v: TrainBatch weight hash %s, want %s", name, got, want)
		}
		if testing.Short() {
			continue // the spec loop is slow under -race; TestTrainBatchMatchesSpecLoop still runs it
		}
		if got := trainAndHash(t, name, batches, specTrainBatch); got != want {
			t.Errorf("%v: spec-loop weight hash %s, want %s", name, got, want)
		}
	}
}

func BenchmarkTrainBatch(b *testing.B) {
	batch := hashBatches(b, 1, 32)[0]
	for _, name := range nn.AllModels() {
		b.Run(name.String(), func(b *testing.B) {
			net := goldenNet(b, name)
			opt := nn.NewSGD(0.01, 0.9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.TrainBatch(batch, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAccuracy(b *testing.B) {
	corpus := goldenDataset(b)
	for _, name := range nn.AllModels() {
		for _, size := range []int{4, 32} {
			b.Run(fmt.Sprintf("%v/n%d", name, size), func(b *testing.B) {
				net := goldenNet(b, name)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := net.Accuracy(corpus[:size]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// diffNet holds what the three models lack between them: a stride-2
// convolution, a residual block with a projection skip, global average
// pooling, and two dropout layers (each on its own stream, as the models'
// are).
func diffNet() *nn.Network {
	r := xrand.New(11)
	return &nn.Network{Name: "diff", Layers: []nn.Layer{
		nn.NewCenter("center", 0.5),
		nn.NewConv2D("conv1", 3, 6, 3, 2, 1, r.Split("conv1", 0)), // 3×12×12 → 6×6×6
		nn.NewReLU("relu1"),
		nn.NewDropout("drop1", 0.2, r.Split("drop1", 0)),
		nn.NewResidual("res",
			nn.NewConv2D("res-proj", 6, 8, 1, 1, 0, r.Split("res-proj", 0)),
			nn.NewConv2D("res-conv1", 6, 8, 3, 1, 1, r.Split("res-conv1", 0)),
			nn.NewReLU("res-relu"),
			nn.NewConv2D("res-conv2", 8, 8, 3, 1, 1, r.Split("res-conv2", 0)),
		),
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool", 2),
		nn.NewGlobalAvgPool("gap"),
		nn.NewDropout("drop2", 0.3, r.Split("drop2", 0)),
		nn.NewDense("fc", 8, 5, r.Split("fc", 0)),
	}}
}

// oddNet pools odd spatial sizes, so its 2×2 windows leave a last row and
// column uncovered, and its second convolution's input gradient goes through
// a padded plane wider than the kernel reaches (pad 2 on a 3×3 kernel).
func oddNet() *nn.Network {
	r := xrand.New(13)
	return &nn.Network{Name: "odd", Layers: []nn.Layer{
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, r.Split("conv1", 0)), // 3×11×9 → 4×11×9
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2), // → 4×5×4
		nn.NewConv2D("conv2", 4, 6, 3, 1, 2, r.Split("conv2", 0)), // → 6×7×6
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 2), // → 6×3×3
		nn.NewFlatten("flat"),
		nn.NewDense("fc", 54, 5, r.Split("fc", 0)),
	}}
}

// mlpNet starts with a Dense layer: the position where the step skips the
// input-gradient GEMM.
func mlpNet() *nn.Network {
	r := xrand.New(12)
	return &nn.Network{Name: "mlp", Layers: []nn.Layer{
		nn.NewDense("fc1", 6, 9, r.Split("fc1", 0)),
		nn.NewReLU("relu"),
		nn.NewDense("fc2", 9, 3, r.Split("fc2", 0)),
	}}
}

func randomBatches(seed uint64, steps, size, classes int, shape ...int) [][]nn.Sample {
	r := xrand.New(seed)
	batches := make([][]nn.Sample, steps)
	for s := range batches {
		for i := 0; i < size; i++ {
			x := tensor.New(shape...)
			x.RandomizeUniform(r, 0, 1)
			batches[s] = append(batches[s], nn.Sample{X: x, Label: r.Intn(classes)})
		}
	}
	return batches
}

// requireSameTraining fails unless the two networks hold bit-equal parameters.
func requireSameTraining(t *testing.T, step int, got, want *nn.Network, gotLoss, wantLoss float64) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("step %d: loss %v, spec loop %v", step, gotLoss, wantLoss)
	}
	wp := want.Params()
	for pi, p := range got.Params() {
		for j, v := range p.Data {
			if math.Float32bits(v) != math.Float32bits(wp[pi].Data[j]) {
				t.Fatalf("step %d: parameter %d[%d] = %v, spec loop %v", step, pi, j, v, wp[pi].Data[j])
			}
		}
	}
}

// TrainBatch and the spec loop, from identical seeds, must return the same
// losses and leave the same parameters after every step, bit for bit. Between
// steps the trained network also serves — Predict and Accuracy on its own
// scratch, ForwardBatchArena on a fresh arena — and none of that may move
// the next step: inference draws no dropout mask and leaves the gradients
// and the step's recorded inputs alone.
func TestTrainBatchMatchesSpecLoop(t *testing.T) {
	type trainCase struct {
		name    string
		build   func() *nn.Network
		batches [][]nn.Sample
	}
	cases := []trainCase{
		{"diff", diffNet, randomBatches(21, 4, 7, 5, 3, 12, 12)},
		{"mlp", mlpNet, randomBatches(22, 4, 5, 3, 6)},
		{"odd", oddNet, randomBatches(23, 4, 6, 5, 3, 11, 9)},
	}
	for _, name := range nn.AllModels() {
		name := name
		cases = append(cases, trainCase{name.String(), func() *nn.Network { return goldenNet(t, name) }, hashBatches(t, 3, 5)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.build(), c.build()
			gotOpt, wantOpt := nn.NewSGD(0.05, 0.9), nn.NewSGD(0.05, 0.9)
			for step, batch := range c.batches {
				gotLoss, err := got.TrainBatch(batch, gotOpt)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss, err := specTrainBatch(want, batch, wantOpt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTraining(t, step, got, want, gotLoss, wantLoss)
				serveBetweenSteps(t, got, batch)
			}
		})
	}
}

// serveBetweenSteps runs every inference entry point of net over batch.
func serveBetweenSteps(t *testing.T, net *nn.Network, batch []nn.Sample) {
	t.Helper()
	if _, err := net.Predict(batch[0].X); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Accuracy(batch); err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, len(batch))
	for i, s := range batch {
		xs[i] = s.X
	}
	x, err := nn.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatchArena(x, nn.NewInferenceArena()); err != nil {
		t.Fatal(err)
	}
}

// A zero upstream gradient must not hide a non-finite activation: IEEE
// 0·Inf = NaN has to reach the weight gradient, on the spec loop and on
// TrainBatch alike. The dense layer's outputs are −Inf, so the ReLU behind
// it passes back exactly zero.
func TestDenseZeroGradientStillPropagatesInf(t *testing.T) {
	for name, step := range map[string]trainStep{"TrainBatch": viaTrainBatch, "spec loop": specTrainBatch} {
		fc := nn.NewDense("fc", 2, 2, xrand.New(1))
		copy(fc.W.Data, []float32{-1, 0, -1, 0})
		net := &nn.Network{Name: "inf", Layers: []nn.Layer{fc, nn.NewReLU("relu")}}
		x := tensor.New(2)
		x.Data[0], x.Data[1] = float32(math.Inf(1)), 1
		if _, err := step(net, []nn.Sample{{X: x, Label: 0}}, nn.NewSGD(0.1, 0)); err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 2; o++ {
			if w := fc.W.Data[o*2]; !math.IsNaN(float64(w)) {
				t.Errorf("%s: W[%d][0] = %v after a step on an Inf activation, want NaN", name, o, w)
			}
			if w := fc.W.Data[o*2+1]; w != 0 {
				t.Errorf("%s: W[%d][1] = %v, want the untouched 0", name, o, w)
			}
		}
	}
}

// Steady-state allocations over 32 samples. At aee71e6 the per-sample loops
// allocated 5229 / 7558 / 4322 times per TrainBatch and 2470 / 3464 / 2210 per
// Accuracy (alexnet / resnet / lenet). Both now allocate nothing: the loss
// writes its gradient into the step's arena row. The first step grows every
// buffer; the collection that growth starts is finished before counting, so
// the runtime's own allocations during it are not charged to the step.
func TestOfflinePathAllocations(t *testing.T) {
	corpus := goldenDataset(t)[:32]
	for _, name := range nn.AllModels() {
		net := goldenNet(t, name)
		opt := nn.NewSGD(0.01, 0.9)
		if _, err := net.TrainBatch(corpus, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Accuracy(corpus); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		train := testing.AllocsPerRun(5, func() {
			if _, err := net.TrainBatch(corpus, opt); err != nil {
				t.Fatal(err)
			}
		})
		eval := testing.AllocsPerRun(5, func() {
			if _, err := net.Accuracy(corpus); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f allocs per TrainBatch, %.0f per Accuracy", name, train, eval)
		if train > 0 {
			t.Errorf("%v: %.0f allocs per 32-sample TrainBatch, want 0", name, train)
		}
		if eval > 0 {
			t.Errorf("%v: %.0f allocs per 32-sample Accuracy, want 0", name, eval)
		}
	}
}
