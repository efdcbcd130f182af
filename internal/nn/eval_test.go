package nn_test

// Evaluation-equivalence tests: Predict, Accuracy and ErrorSet run on the
// network's private arena (Predict as a batch of one) and must equal the
// per-sample spec exactly — for every set size around the chunk boundary,
// and after every way the weights can move under the network without
// telling it.

import (
	"reflect"
	"testing"

	"mvml/internal/faultinject"
	"mvml/internal/nn"
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
}
