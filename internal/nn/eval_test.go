package nn_test

// Evaluation-equivalence tests: Predict, Accuracy and ErrorSet run on the
// network's private arena (Predict as a batch of one), the YOLite detector
// version on an arena of its own, and all must equal the per-sample spec
// exactly — for every set size around the chunk boundary, and after every
// way the weights can move under the network without telling it.

import (
	"reflect"
	"slices"
	"testing"

	"mvml/internal/drivesim"
	"mvml/internal/faultinject"
	"mvml/internal/nn"
	"mvml/internal/perception"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// specPredictions is the per-sample executable spec of predictAll.
func specPredictions(t *testing.T, net *nn.Network, samples []nn.Sample) []int {
	t.Helper()
	spec := nn.NewSpec(net)
	preds := make([]int, len(samples))
	for i, s := range samples {
		pred, err := spec.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = pred
	}
	return preds
}

// requireEvalMatchesSpec checks Predict, Accuracy and ErrorSet against the
// spec on the network's current weights and returns the spec's predictions.
// Predict goes first: after a weight write its arena still holds the panels
// the previous evaluation packed.
func requireEvalMatchesSpec(t *testing.T, what string, net *nn.Network, samples []nn.Sample) []int {
	t.Helper()
	preds := specPredictions(t, net, samples)
	for i, s := range samples {
		got, err := net.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		if got != preds[i] {
			t.Fatalf("%s: sample %d: Predict %d, spec %d", what, i, got, preds[i])
		}
	}
	wantErrs := map[int]bool{}
	for i, s := range samples {
		if preds[i] != s.Label {
			wantErrs[i] = true
		}
	}
	wantAcc := float64(len(samples)-len(wantErrs)) / float64(len(samples))
	acc, err := net.Accuracy(samples)
	if err != nil {
		t.Fatal(err)
	}
	if acc != wantAcc {
		t.Fatalf("%s: Accuracy %v, per-sample Predict loop %v", what, acc, wantAcc)
	}
	errs, err := net.ErrorSet(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(errs, wantErrs) {
		t.Fatalf("%s: ErrorSet %v, per-sample Predict loop %v", what, errs, wantErrs)
	}
	return preds
}

func TestEvaluationMatchesPerSamplePredict(t *testing.T) {
	corpus := goldenDataset(t)
	for _, name := range nn.AllModels() {
		net := goldenNet(t, name)
		sizes := []int{1, 4, 31, 32, 33, len(corpus)}
		if testing.Short() {
			sizes = sizes[:5] // the per-sample spec over the full split is slow under -race
		}
		for _, size := range sizes {
			requireEvalMatchesSpec(t, name.String(), net, corpus[:size])
		}
	}
	if _, err := goldenNet(t, nn.ModelLeNet).Accuracy(nil); err == nil {
		t.Fatal("Accuracy of an empty set must be an error")
	}
}

// Training, fault injection, Revert and RestoreWeights all write weights in
// place without notifying the network. Every evaluation in between must see
// the weights as they are: each fault below is one the spec shows flipping a
// prediction, so an evaluation from panels packed before it cannot pass.
func TestEvaluationNeverUsesStaleWeights(t *testing.T) {
	corpus := goldenDataset(t)[:48]
	models := nn.AllModels()
	if testing.Short() {
		models = models[2:] // lenet: the per-sample spec is slow under -race
	}
	for _, name := range models {
		net := goldenNet(t, name)
		what := func(s string) string { return name.String() + " " + s }
		base := requireEvalMatchesSpec(t, what("pristine"), net, corpus)

		// A fault the spec can see.
		var inj faultinject.Injection
		seed := uint64(0)
		for ; ; seed++ {
			if seed == 200 {
				t.Fatalf("%v: no weight fault in 200 seeds flips a prediction", name)
			}
			var err error
			if inj, err = faultinject.RandomWeightInj(net, 1, -100, 300, xrand.New(seed)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(specPredictions(t, net, corpus), base) {
				break
			}
			inj.Revert()
		}
		faulted := requireEvalMatchesSpec(t, what("after injection"), net, corpus)
		inj.Revert()
		if got := requireEvalMatchesSpec(t, what("after Revert"), net, corpus); !reflect.DeepEqual(got, base) {
			t.Fatalf("%v: Revert did not restore the baseline predictions", name)
		}

		// The same fault left in place, undone by RestoreWeights.
		saved := net.CloneWeights()
		if _, err := faultinject.RandomWeightInj(net, 1, -100, 300, xrand.New(seed)); err != nil {
			t.Fatal(err)
		}
		if got := requireEvalMatchesSpec(t, what("after a second injection"), net, corpus); !reflect.DeepEqual(got, faulted) {
			t.Fatalf("%v: the same injection seed gave different predictions", name)
		}
		if err := net.RestoreWeights(saved); err != nil {
			t.Fatal(err)
		}
		requireEvalMatchesSpec(t, what("after RestoreWeights"), net, corpus)

		// Training steps in between, large enough to move predictions.
		opt := nn.NewSGD(0.1, 0.9)
		for step := 0; step < 3; step++ {
			if _, err := net.TrainBatch(corpus[step*16:(step+1)*16], opt); err != nil {
				t.Fatal(err)
			}
		}
		if got := requireEvalMatchesSpec(t, what("after TrainBatch"), net, corpus); reflect.DeepEqual(got, base) {
			t.Fatalf("%v: three training steps moved no prediction; the check above proves nothing", name)
		}
	}
	detectorNeverStale(t)
}

// detectorNeverStale is the stale-weight check for the YOLite detector
// version, whose Infer runs the network as a batch of one on an arena of the
// version's own while Compromise and Restore write the weights under it.
func detectorNeverStale(t *testing.T) {
	net := nn.NewYOLite(xrand.New(3))
	v, err := perception.NewNNDetectorVersion("yolite", net, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// Infer's raster noise stream, drawn in step with it at the version's
	// default noise level (0.02, below).
	noise := xrand.New(4).Split("noise", 0)
	r := xrand.New(5)
	scenes := make([]drivesim.Scene, 6)
	for i := range scenes {
		for j := 0; j < 3; j++ {
			scenes[i].Objects = append(scenes[i].Objects, drivesim.Object{ID: j + 1, Pos: drivesim.Vec2{
				X: r.Uniform(2, perception.RasterAhead-2),
				Y: r.Uniform(-perception.RasterHalfWidth+2, perception.RasterHalfWidth-2),
			}})
		}
	}
	// prev holds the weights of the stage before: Infer answering from
	// panels packed then gives its detections.
	prev := nn.NewYOLite(xrand.New(3))
	// stage requires Infer to equal the spec on every scene, and reports
	// whether a stale Infer would have answered differently.
	stage := func(what string) (moved bool) {
		t.Helper()
		for i, scene := range scenes {
			raster := perception.Rasterize(scene, 0.02, noise)
			got, err := v.Infer(scene)
			if err != nil {
				t.Fatal(err)
			}
			want := specDetections(t, net, raster)
			if !slices.Equal(got, want) {
				t.Fatalf("detector %s: scene %d: Infer %v, spec %v", what, i, got, want)
			}
			moved = moved || !slices.Equal(specDetections(t, prev, raster), want)
		}
		if err := prev.RestoreWeights(net.CloneWeights()); err != nil {
			t.Fatal(err)
		}
		return moved
	}
	stage("pristine")
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("detector: no fault in 50 Compromise calls moves a detection")
		}
		if err := v.Compromise(); err != nil {
			t.Fatal(err)
		}
		if stage("after Compromise") {
			break
		}
		if err := v.Restore(); err != nil {
			t.Fatal(err)
		}
		stage("after Restore")
	}
	if err := v.Restore(); err != nil {
		t.Fatal(err)
	}
	if !stage("after Restore") {
		t.Fatal("detector: Restore moved no detection; the check above proves nothing")
	}
}

// specDetections is NNDetectorVersion.Infer on the spec, at the version's
// default 0.5 objectness threshold, for a raster of a scene whose ego sits at
// the origin heading along +X, where world and raster axes agree.
func specDetections(t *testing.T, net *nn.Network, raster *tensor.Tensor) []drivesim.Detection {
	t.Helper()
	out, err := nn.NewSpec(net).Forward(raster, false)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := nn.DecodeYOLite(out, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dets := make([]drivesim.Detection, 0, len(grid))
	for _, g := range grid {
		dets = append(dets, drivesim.Detection{Pos: drivesim.Vec2{
			X: g.X / nn.YOLiteInputSize * perception.RasterAhead,
			Y: g.Y/nn.YOLiteInputSize*(2*perception.RasterHalfWidth) - perception.RasterHalfWidth,
		}})
	}
	return dets
}
