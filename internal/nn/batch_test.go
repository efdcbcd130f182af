package nn

import (
	"fmt"
	"testing"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// randomBatch renders B random image-shaped inputs.
func randomBatch(b int, r *xrand.Rand) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, b)
	for i := range xs {
		x := tensor.New(InputChannels, InputSize, InputSize)
		x.RandomizeUniform(r, 0, 1)
		xs[i] = x
	}
	return xs
}

func TestStack(t *testing.T) {
	r := xrand.New(1)
	xs := randomBatch(3, r)
	batch, err := Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, InputChannels, InputSize, InputSize}
	for i, d := range want {
		if batch.Shape[i] != d {
			t.Fatalf("shape %v, want %v", batch.Shape, want)
		}
	}
	stride := xs[0].Len()
	for i, x := range xs {
		for j, v := range x.Data {
			if batch.Data[i*stride+j] != v {
				t.Fatalf("sample %d element %d not copied", i, j)
			}
		}
	}
	if _, err := Stack(nil); err == nil {
		t.Fatal("expected error for empty batch")
	}
	bad := []*tensor.Tensor{tensor.New(2), tensor.New(3)}
	if _, err := Stack(bad); err == nil {
		t.Fatal("expected error for mismatched sample sizes")
	}
	// Same element count, other layout: a channels-last image is not a
	// channels-first one.
	hwc := tensor.New(InputSize, InputSize, InputChannels)
	if _, err := Stack([]*tensor.Tensor{xs[0], hwc}); err == nil {
		t.Fatalf("Stack accepted a %v sample into a %v batch", hwc.Shape, xs[0].Shape)
	}
}

// TestForwardBatchMatchesPerSample is the core equivalence property: for all
// three classifier architectures, the batched path must produce exactly the
// logits (and therefore predictions, written into a reused slice) of the
// per-sample path.
func TestForwardBatchMatchesPerSample(t *testing.T) {
	for _, name := range AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			net, err := NewModel(name, 7, xrand.New(uint64(name)))
			if err != nil {
				t.Fatal(err)
			}
			xs := randomBatch(5, xrand.New(99))
			batch, err := Stack(xs)
			if err != nil {
				t.Fatal(err)
			}
			ar := NewInferenceArena()
			reused := make([]int, 5)
			preds, err := net.PredictBatchArena(batch, ar, reused[:0])
			if err != nil {
				t.Fatal(err)
			}
			if &preds[0] != &reused[0] {
				t.Fatal("PredictBatchArena reallocated a prediction slice with enough capacity")
			}
			out, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				t.Fatal(err)
			}
			if out.Shape[0] != 5 || out.Shape[1] != 7 {
				t.Fatalf("batched output shape %v, want (5, 7)", out.Shape)
			}
			spec := NewSpec(net)
			for i, x := range xs {
				single, err := spec.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				row := out.Data[i*7 : (i+1)*7]
				for j, v := range single.Data {
					if row[j] != v {
						t.Fatalf("sample %d logit %d: batched %v, per-sample %v", i, j, row[j], v)
					}
				}
				if preds[i] != single.ArgMax() {
					t.Fatalf("sample %d: batched class %d, per-sample %d", i, preds[i], single.ArgMax())
				}
			}
		})
	}
}

func TestForwardBatchRejectsScalarShape(t *testing.T) {
	net, err := NewModel(ModelLeNet, 4, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatchArena(tensor.New(5), NewInferenceArena()); err == nil {
		t.Fatal("expected error for input without a batch dimension")
	}
}

func BenchmarkForwardPerSample(b *testing.B) {
	benchForward(b, false)
}

func BenchmarkForwardBatched(b *testing.B) {
	benchForward(b, true)
}

func benchForward(b *testing.B, batched bool) {
	for _, name := range AllModels() {
		b.Run(fmt.Sprintf("%v", name), func(b *testing.B) {
			net, err := NewModel(name, 43, xrand.New(uint64(name)))
			if err != nil {
				b.Fatal(err)
			}
			xs := randomBatch(16, xrand.New(2))
			batch, err := Stack(xs)
			if err != nil {
				b.Fatal(err)
			}
			ar := NewInferenceArena()
			var preds []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batched {
					if preds, err = net.PredictBatchArena(batch, ar, preds); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, x := range xs {
						if _, err := net.Predict(x); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
