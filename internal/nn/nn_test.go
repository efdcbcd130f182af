package nn

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// lossOf runs a spec forward pass and returns the cross-entropy loss.
func lossOf(t *testing.T, net *Network, x *tensor.Tensor, label int) float64 {
	t.Helper()
	out, err := NewSpec(net).Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, err := SoftmaxCrossEntropy(out, label)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// checkGradients compares the spec's analytic parameter gradients against
// central finite differences for a single sample. Networks containing kinked
// activations (ReLU, max pooling) are piecewise smooth: a finite-difference
// probe that crosses an activation boundary produces a biased estimate for
// that one coordinate. maxBadFrac is the tolerated fraction of such sampled
// coordinates; pass 0 for kink-free stacks, where every coordinate must
// match.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, label int, maxBadFrac float64) {
	t.Helper()
	net.ZeroGrads()
	spec := NewSpec(net)
	out, err := spec.Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := SoftmaxCrossEntropy(out, label)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Backward(grad); err != nil {
		t.Fatal(err)
	}

	params, grads := net.Params(), net.Grads()
	const eps = 1e-2
	checked, bad := 0, 0
	var firstBad string
	for pi, p := range params {
		stride := p.Len()/20 + 1 // sample ~20 coordinates per tensor
		for j := 0; j < p.Len(); j += stride {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lossPlus := lossOf(t, net, x, label)
			p.Data[j] = orig - eps
			lossMinus := lossOf(t, net, x, label)
			p.Data[j] = orig

			numeric := (lossPlus - lossMinus) / (2 * eps)
			analytic := float64(grads[pi].Data[j])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			checked++
			if diff/scale > 0.08 {
				bad++
				if firstBad == "" {
					firstBad = fmt.Sprintf("param %d[%d]: analytic %v vs numeric %v", pi, j, analytic, numeric)
				}
			}
		}
	}
	if float64(bad) > maxBadFrac*float64(checked) {
		t.Errorf("%d/%d sampled gradients mismatched (budget %.0f%%); first: %s",
			bad, checked, maxBadFrac*100, firstBad)
	}
}

func TestDenseGradients(t *testing.T) {
	r := xrand.New(1)
	net := &Network{Name: "dense-test", Layers: []Layer{
		NewDense("fc1", 6, 5, r),
		NewReLU("relu"),
		NewDense("fc2", 5, 3, r),
	}}
	x := tensor.New(6)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 1, 0.05)
}

func TestConvGradients(t *testing.T) {
	r := xrand.New(2)
	net := &Network{Name: "conv-test", Layers: []Layer{
		NewConv2D("conv", 2, 3, 3, 1, 1, r),
		NewReLU("relu"),
		NewFlatten("flat"),
		NewDense("fc", 3*5*5, 4, r),
	}}
	x := tensor.New(2, 5, 5)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 2, 0.15)
}

func TestConvStridedGradients(t *testing.T) {
	r := xrand.New(3)
	net := &Network{Name: "conv-stride-test", Layers: []Layer{
		NewConv2D("conv", 1, 2, 3, 2, 1, r),
		NewFlatten("flat"),
		NewDense("fc", 2*3*3, 3, r),
	}}
	x := tensor.New(1, 6, 6)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 0, 0)
}

func TestMaxPoolGradients(t *testing.T) {
	r := xrand.New(4)
	net := &Network{Name: "pool-test", Layers: []Layer{
		NewConv2D("conv", 1, 2, 3, 1, 1, r),
		NewMaxPool2D("pool", 2),
		NewFlatten("flat"),
		NewDense("fc", 2*3*3, 3, r),
	}}
	x := tensor.New(1, 6, 6)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 1, 0.2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := xrand.New(5)
	net := &Network{Name: "gap-test", Layers: []Layer{
		NewConv2D("conv", 1, 4, 3, 1, 1, r),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 3, r),
	}}
	x := tensor.New(1, 5, 5)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 2, 0)
}

func TestResidualIdentityGradients(t *testing.T) {
	r := xrand.New(6)
	block := NewResidual("res", nil,
		NewConv2D("c1", 2, 2, 3, 1, 1, r),
		NewReLU("r1"),
		NewConv2D("c2", 2, 2, 3, 1, 1, r),
	)
	net := &Network{Name: "res-test", Layers: []Layer{
		block,
		NewFlatten("flat"),
		NewDense("fc", 2*4*4, 3, r),
	}}
	x := tensor.New(2, 4, 4)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 0, 0.1)
}

func TestResidualProjectionGradients(t *testing.T) {
	r := xrand.New(7)
	block := NewResidual("res",
		NewConv2D("proj", 2, 4, 1, 1, 0, r),
		NewConv2D("c1", 2, 4, 3, 1, 1, r),
		NewReLU("r1"),
		NewConv2D("c2", 4, 4, 3, 1, 1, r),
	)
	net := &Network{Name: "res-proj-test", Layers: []Layer{
		block,
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 3, r),
	}}
	x := tensor.New(2, 4, 4)
	x.RandomizeUniform(r, -1, 1)
	checkGradients(t, net, x, 1, 0.15)
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	pool := NewMaxPool2D("pool", 2)
	x, err := tensor.FromSlice([]float32{
		1, 2, 5, 0,
		3, 4, 1, 1,
		9, 0, 2, 8,
		0, 0, 7, 3,
	}, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := specOf(pool)
	y, err := spec.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	wantY := []float32{4, 5, 9, 8}
	for i, w := range wantY {
		if y.Data[i] != w {
			t.Fatalf("pooled output %v, want %v", y.Data, wantY)
		}
	}
	grad, err := tensor.FromSlice([]float32{10, 20, 30, 40}, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := spec.backward(pool, grad)
	if err != nil {
		t.Fatal(err)
	}
	// Gradient must land exactly on each window's argmax.
	wantDX := []float32{
		0, 0, 20, 0,
		0, 10, 0, 0,
		30, 0, 0, 40,
		0, 0, 0, 0,
	}
	for i, w := range wantDX {
		if dx.Data[i] != w {
			t.Fatalf("routed gradient %v, want %v", dx.Data, wantDX)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits, _ := tensor.FromSlice([]float32{2, -1, 0.5, 100}, 4)
	p := Softmax(logits)
	var sum float64
	for _, v := range p.Data {
		if v < 0 || v > 1 {
			t.Fatalf("softmax value out of range: %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if p.ArgMax() != 3 {
		t.Fatal("softmax should preserve argmax")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over k classes → loss = ln(k).
	logits := tensor.New(4)
	loss, grad, err := SoftmaxCrossEntropy(logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln(4)", loss)
	}
	// Gradient = probs - onehot: 0.25 everywhere except -0.75 at label.
	for i, g := range grad.Data {
		want := float32(0.25)
		if i == 2 {
			want = -0.75
		}
		if math.Abs(float64(g-want)) > 1e-6 {
			t.Fatalf("grad[%d] = %v, want %v", i, g, want)
		}
	}
}

func TestCrossEntropyBadLabel(t *testing.T) {
	if _, _, err := SoftmaxCrossEntropy(tensor.New(3), 5); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

// blobs generates two well-separated Gaussian clusters as vectors.
func blobs(r *xrand.Rand, n, dim int) []Sample {
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % 2
		center := -1.0
		if label == 1 {
			center = 1.0
		}
		x := tensor.New(dim)
		for j := range x.Data {
			x.Data[j] = float32(r.Normal(center, 0.4))
		}
		samples = append(samples, Sample{X: x, Label: label})
	}
	return samples
}

func TestTrainingLearnsSeparableData(t *testing.T) {
	r := xrand.New(8)
	net := &Network{Name: "mlp", Layers: []Layer{
		NewDense("fc1", 8, 16, r),
		NewReLU("relu"),
		NewDense("fc2", 16, 2, r),
	}}
	train := blobs(r, 200, 8)
	test := blobs(r.Split("test", 0), 100, 8)

	opt := NewSGD(0.1, 0.9)
	for epoch := 0; epoch < 10; epoch++ {
		for i := 0; i < len(train); i += 20 {
			if _, err := net.TrainBatch(train[i:i+20], opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	acc, err := net.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %v after training on separable blobs", acc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	r := xrand.New(9)
	net := NewLeNetSmall(4, r)
	batch := make([]Sample, 8)
	for i := range batch {
		x := tensor.New(InputChannels, InputSize, InputSize)
		x.RandomizeUniform(r, 0, 1)
		batch[i] = Sample{X: x, Label: i % 4}
	}
	opt := NewSGD(0.05, 0.9)
	first, err := net.TrainBatch(batch, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		last, err = net.TrainBatch(batch, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestModelForwardShapes(t *testing.T) {
	r := xrand.New(10)
	for _, name := range AllModels() {
		net, err := NewModel(name, 43, r.Split(name.String(), 0))
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(InputChannels, InputSize, InputSize)
		x.RandomizeUniform(r, 0, 1)
		out, err := NewSpec(net).Forward(x, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Len() != 43 {
			t.Fatalf("%s output size %d, want 43", name, out.Len())
		}
		if net.ParamCount() == 0 {
			t.Fatalf("%s has no parameters", name)
		}
	}
}

func TestModelsAreDiverse(t *testing.T) {
	r := xrand.New(11)
	counts := map[ModelName]int{}
	for _, name := range AllModels() {
		net, err := NewModel(name, 10, r.Split(name.String(), 0))
		if err != nil {
			t.Fatal(err)
		}
		counts[name] = net.ParamCount()
	}
	if counts[ModelAlexNet] == counts[ModelLeNet] || counts[ModelLeNet] == counts[ModelResNet] {
		t.Fatalf("architectures should differ in size: %v", counts)
	}
}

func TestNewModelUnknown(t *testing.T) {
	if _, err := NewModel(ModelName(99), 10, xrand.New(1)); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestParamLayers(t *testing.T) {
	r := xrand.New(12)
	net := NewLeNetSmall(10, r)
	pls := net.ParamLayers()
	if len(pls) != 5 { // conv1, conv2, fc1, fc2, fc3
		t.Fatalf("LeNetSmall has %d parameterised layers, want 5", len(pls))
	}
	for i, pl := range pls {
		if pl.Index != i {
			t.Fatalf("param layer %d has index %d", i, pl.Index)
		}
		if len(pl.Params) == 0 {
			t.Fatalf("param layer %s has no params", pl.Name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := xrand.New(13)
	src := NewLeNetSmall(10, r.Split("src", 0))
	dst := NewLeNetSmall(10, r.Split("dst", 0))

	x := tensor.New(InputChannels, InputSize, InputSize)
	x.RandomizeUniform(r, 0, 1)

	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := NewSpec(src).Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpec(dst).Forward(x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded network computes different outputs")
		}
	}
}

func TestLoadWeightsArchMismatch(t *testing.T) {
	r := xrand.New(14)
	src := NewLeNetSmall(10, r.Split("a", 0))
	dst := NewAlexNetSmall(10, r.Split("b", 0))
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadWeights(&buf); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestCloneRestoreWeights(t *testing.T) {
	r := xrand.New(15)
	net := NewLeNetSmall(10, r)
	saved := net.CloneWeights()

	// Corrupt a weight, then restore.
	net.Params()[0].Data[0] = 999
	if err := net.RestoreWeights(saved); err != nil {
		t.Fatal(err)
	}
	if net.Params()[0].Data[0] == 999 {
		t.Fatal("RestoreWeights did not undo corruption")
	}

	// Saved copy must be independent of live weights.
	net.Params()[0].Data[0] = 123
	if saved[0][0] == 123 {
		t.Fatal("CloneWeights aliases live weights")
	}
}

func TestErrorSet(t *testing.T) {
	r := xrand.New(16)
	net := &Network{Name: "mlp", Layers: []Layer{
		NewDense("fc1", 4, 8, r),
		NewReLU("relu"),
		NewDense("fc2", 8, 2, r),
	}}
	samples := blobs(r, 50, 4)
	errs, err := net.ErrorSet(samples)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := net.Accuracy(samples)
	if err != nil {
		t.Fatal(err)
	}
	wantErrs := int(math.Round((1 - acc) * float64(len(samples))))
	if len(errs) != wantErrs {
		t.Fatalf("error set size %d inconsistent with accuracy %v", len(errs), acc)
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	r := xrand.New(17)
	d := NewDropout("drop", 0.5, r)
	x := tensor.New(100)
	x.RandomizeUniform(r, -1, 1)
	y, err := d.ForwardBatchArena(x, NewInferenceArena())
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("dropout altered values at inference")
		}
	}
}

func TestDropoutTrainPreservesExpectation(t *testing.T) {
	r := xrand.New(18)
	d := NewDropout("drop", 0.3, r)
	x := tensor.New(10000)
	x.Fill(1)
	ar := NewInferenceArena()
	ar.train = true // as inside a training step
	y, err := d.ForwardBatchArena(x, ar)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	zeros := 0
	for _, v := range y.Data {
		sum += float64(v)
		if v == 0 {
			zeros++
		}
	}
	mean := sum / float64(len(y.Data))
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("inverted dropout mean %v, want ≈1", mean)
	}
	frac := float64(zeros) / float64(len(y.Data))
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("dropped fraction %v, want ≈0.3", frac)
	}
}

func TestSGDStepErrors(t *testing.T) {
	opt := NewSGD(0.1, 0.9)
	p := tensor.New(3)
	g := tensor.New(3)
	if err := opt.Step([]*tensor.Tensor{p}, nil, 1); err == nil {
		t.Fatal("expected mismatch error")
	}
	if err := opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, 0); err == nil {
		t.Fatal("expected batch-size error")
	}
}

func TestForwardErrorPropagatesLayerName(t *testing.T) {
	r := xrand.New(19)
	net := &Network{Name: "bad", Layers: []Layer{NewDense("fc", 4, 2, r)}}
	if _, err := net.Predict(tensor.New(7)); err == nil || !strings.Contains(err.Error(), "layer fc") {
		t.Fatalf("Predict on a 7-element input to a 4-input layer: err = %v, want a size-mismatch error naming fc", err)
	}
}

func BenchmarkLeNetForward(b *testing.B) {
	r := xrand.New(1)
	net := NewLeNetSmall(43, r)
	x := tensor.New(InputChannels, InputSize, InputSize)
	x.RandomizeUniform(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResNetForward(b *testing.B) {
	r := xrand.New(1)
	net := NewResNetSmall(43, r)
	x := tensor.New(InputChannels, InputSize, InputSize)
	x.RandomizeUniform(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}
