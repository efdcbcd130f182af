package nn_test

// Training-equivalence tests. The per-sample Forward(x, true)/Backward
// methods are the executable spec of a training step; specTrainBatch below is
// the loop over them that TrainBatch is held to, bit for bit, and the weight
// hashes were committed from that loop before TrainBatch moved off it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/tensor"
)

// specTrainBatch is one optimiser step written against the per-sample spec:
// gradients accumulate sample by sample in batch order, then one SGD step.
func specTrainBatch(net *nn.Network, batch []nn.Sample, opt *nn.SGD) (float64, error) {
	if len(batch) == 0 {
		return 0, errors.New("empty batch")
	}
	net.ZeroGrads()
	var total float64
	for _, s := range batch {
		out, err := net.Forward(s.X, true)
		if err != nil {
			return 0, err
		}
		loss, grad, err := nn.SoftmaxCrossEntropy(out, s.Label)
		if err != nil {
			return 0, err
		}
		total += loss
		if err := net.Backward(grad); err != nil {
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
	hashParams(h.Write, net.Params())
	return hex.EncodeToString(h.Sum(nil))
}

func hashParams(write func([]byte) (int, error), params []*tensor.Tensor) {
	var word [4]byte
	for _, p := range params {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			write(word[:])
		}
	}
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
		if got := trainAndHash(t, name, batches, specTrainBatch); got != want {
			t.Errorf("%v: spec-loop weight hash %s, want %s", name, got, want)
		}
	}
}
