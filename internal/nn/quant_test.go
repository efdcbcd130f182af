package nn_test

// Int8 quantized-inference tests: calibration determinism, the golden-corpus
// decision-equivalence gate, and the weight-epoch invalidation contract of
// the packed-operand cache. The external test package lets the corpus come
// from internal/signs (which imports nn).

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// updateGolden regenerates testdata/int8_golden.json:
//
//	go test ./internal/nn -run TestInt8GoldenCorpus -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the int8 golden corpus")

// goldenDataset is the corpus source: a reduced signs test split, fully
// determined by this configuration (train split empty — the corpus nets are
// served at their deterministic initialisation, which exercises the same
// kernels as trained weights without minutes of test-time SGD).
func goldenDataset(t testing.TB) []nn.Sample {
	cfg := signs.DefaultConfig()
	cfg.TrainPerClass = 0
	cfg.TestPerClass = 5
	ds, err := signs.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Test
}

func goldenNet(t testing.TB, name nn.ModelName) *nn.Network {
	net, err := nn.NewModel(name, signs.NumClasses, xrand.New(uint64(name)+7))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// predictAll runs the full sample set through the arena path in batches.
func predictAll(t testing.TB, net *nn.Network, ar *nn.InferenceArena, samples []nn.Sample) []int {
	t.Helper()
	preds := make([]int, 0, len(samples))
	for i := 0; i < len(samples); i += 32 {
		end := i + 32
		if end > len(samples) {
			end = len(samples)
		}
		xs := make([]*tensor.Tensor, 0, end-i)
		for _, s := range samples[i:end] {
			xs = append(xs, s.X)
		}
		batch, err := nn.Stack(xs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := net.PredictBatchArena(batch, ar, nil)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p...)
	}
	return preds
}

// goldenModel pins the decisions of one model over the corpus: Indices are
// the samples where the float32 and int8 paths were verified equivalent at
// generation time, Classes the decision both must still produce.
type goldenModel struct {
	Indices []int `json:"indices"`
	Classes []int `json:"classes"`
	Total   int   `json:"total"`
}

type goldenFile struct {
	Comment string                 `json:"comment"`
	Models  map[string]goldenModel `json:"models"`
}

const goldenPath = "testdata/int8_golden.json"

// TestInt8GoldenCorpus is the decision-equivalence gate: over the committed
// golden corpus every model must produce the pinned class on BOTH the float32
// and the int8 path. The corpus covers at least 90% of the signs test split
// (borderline samples whose float margin is inside the quantization noise are
// excluded at generation time and counted against the coverage floor), so a
// kernel or calibration change that moves any covered decision — in either
// numeric regime — fails here.
func TestInt8GoldenCorpus(t *testing.T) {
	samples := goldenDataset(t)
	if *updateGolden {
		writeGolden(t, samples)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update-golden): %v", err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, name := range nn.AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			gm, ok := golden.Models[name.String()]
			if !ok {
				t.Fatalf("model %s missing from golden corpus", name)
			}
			if gm.Total != len(samples) {
				t.Fatalf("golden corpus built over %d samples, dataset has %d", gm.Total, len(samples))
			}
			if len(gm.Indices) < gm.Total*9/10 {
				t.Fatalf("golden corpus covers %d/%d samples, want >= 90%%", len(gm.Indices), gm.Total)
			}
			net := goldenNet(t, name)
			q, err := nn.CalibrateInt8(net, samples, 32)
			if err != nil {
				t.Fatal(err)
			}
			arF := nn.NewInferenceArena()
			arQ := nn.NewInferenceArena()
			arQ.Quant = q
			pf := predictAll(t, net, arF, samples)
			pq := predictAll(t, net, arQ, samples)
			for i, idx := range gm.Indices {
				want := gm.Classes[i]
				if pf[idx] != want {
					t.Errorf("sample %d: float32 path predicts %d, golden %d", idx, pf[idx], want)
				}
				if pq[idx] != want {
					t.Errorf("sample %d: int8 path predicts %d, golden %d", idx, pq[idx], want)
				}
				if t.Failed() && i > 10 {
					t.Fatal("too many golden mismatches")
				}
			}
		})
	}
}

func writeGolden(t *testing.T, samples []nn.Sample) {
	t.Helper()
	golden := goldenFile{
		Comment: "Pinned float32/int8 decision-equivalent predictions over the reduced signs test split (see goldenDataset). Regenerate: go test ./internal/nn -run TestInt8GoldenCorpus -update-golden",
		Models:  map[string]goldenModel{},
	}
	for _, name := range nn.AllModels() {
		net := goldenNet(t, name)
		q, err := nn.CalibrateInt8(net, samples, 32)
		if err != nil {
			t.Fatal(err)
		}
		arF := nn.NewInferenceArena()
		arQ := nn.NewInferenceArena()
		arQ.Quant = q
		pf := predictAll(t, net, arF, samples)
		pq := predictAll(t, net, arQ, samples)
		gm := goldenModel{Total: len(samples)}
		for i := range pf {
			if pf[i] == pq[i] {
				gm.Indices = append(gm.Indices, i)
				gm.Classes = append(gm.Classes, pf[i])
			}
		}
		if len(gm.Indices) < gm.Total*9/10 {
			t.Fatalf("model %s: paths agree on only %d/%d samples at generation time", name, len(gm.Indices), gm.Total)
		}
		golden.Models[name.String()] = gm
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(golden, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden corpus rewritten: %s", goldenPath)
}

// TestCalibrateInt8Deterministic: same network, same samples → identical
// scales, regardless of batch size (max over a set is split-invariant).
func TestCalibrateInt8Deterministic(t *testing.T) {
	samples := goldenDataset(t)[:40]
	net := goldenNet(t, nn.AllModels()[0])
	q1, err := nn.CalibrateInt8(net, samples, 32)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := nn.CalibrateInt8(net, samples, 7)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 4)
	for i := range xs {
		xs[i] = samples[i].X
	}
	batch, err := nn.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	ar1, ar2 := nn.NewInferenceArena(), nn.NewInferenceArena()
	ar1.Quant, ar2.Quant = q1, q2
	o1, err := net.ForwardBatchArena(batch, ar1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := net.ForwardBatchArena(batch, ar2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1.Data {
		if math.Float32bits(o1.Data[i]) != math.Float32bits(o2.Data[i]) {
			t.Fatalf("logit %d differs across calibration batch sizes: %v vs %v", i, o1.Data[i], o2.Data[i])
		}
	}
}

// mutateWeights perturbs the first Conv2D kernel and the first Dense weight
// matrix of a network, returning an undo function.
func mutateWeights(t *testing.T, net *nn.Network) func() {
	t.Helper()
	var undo []func()
	var conv *nn.Conv2D
	var dense *nn.Dense
	var walk func(layers []nn.Layer)
	walk = func(layers []nn.Layer) {
		for _, l := range layers {
			switch v := l.(type) {
			case *nn.Conv2D:
				if conv == nil {
					conv = v
				}
			case *nn.Dense:
				if dense == nil {
					dense = v
				}
			case *nn.Residual:
				walk(v.Body)
			}
		}
	}
	walk(net.Layers)
	if conv == nil || dense == nil {
		t.Fatal("network has no conv or dense layer to mutate")
	}
	ck, dw := conv.Kernel.Data[0], dense.W.Data[0]
	conv.Kernel.Data[0] = ck + 2
	dense.W.Data[0] = dw - 3
	undo = append(undo, func() { conv.Kernel.Data[0] = ck; dense.W.Data[0] = dw })
	return func() {
		for _, u := range undo {
			u()
		}
	}
}

// TestArenaInvalidateWeights pins the packed-cache staleness contract, float
// and int8: after an in-place weight swap a warmed arena keeps answering from
// the stale packed panels until InvalidateWeights, after which its output is
// bitwise identical to a fresh arena over the swapped weights. This is the
// regression test for rejuvenation/compromise correctness — without epoch
// invalidation a rejuvenated replica would keep serving its compromised
// weights out of the packed cache.
func TestArenaInvalidateWeights(t *testing.T) {
	samples := goldenDataset(t)[:8]
	xs := make([]*tensor.Tensor, len(samples))
	for i := range xs {
		xs[i] = samples[i].X
	}
	batch, err := nn.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, quantized := range []bool{false, true} {
		name := map[bool]string{false: "float", true: "int8"}[quantized]
		t.Run(name, func(t *testing.T) {
			net := goldenNet(t, nn.AllModels()[0])
			var q *nn.QuantParams
			if quantized {
				var err error
				if q, err = nn.CalibrateInt8(net, samples, 32); err != nil {
					t.Fatal(err)
				}
			}
			ar := nn.NewInferenceArena()
			ar.Quant = q
			before, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				t.Fatal(err)
			}
			beforeCopy := before.Clone()

			mutateWeights(t, net)
			stale, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				t.Fatal(err)
			}
			// The weight GEMM panels are stale, so conv/dense still answer
			// with the old weights. (Bias and non-GEMM layers read live
			// weights, but the mutation above only touched packed operands.)
			for i := range stale.Data {
				if math.Float32bits(stale.Data[i]) != math.Float32bits(beforeCopy.Data[i]) {
					t.Fatalf("element %d changed without InvalidateWeights: %v vs %v — cache no longer stale-by-default, update this test and the arena docs",
						i, stale.Data[i], beforeCopy.Data[i])
				}
			}

			ar.InvalidateWeights()
			after, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				t.Fatal(err)
			}
			fresh := nn.NewInferenceArena()
			if quantized {
				// Weight scales are re-derived from current weights on both
				// arenas; the activation scales stay calibrated.
				fresh.Quant = q
			}
			want, err := net.ForwardBatchArena(batch, fresh)
			if err != nil {
				t.Fatal(err)
			}
			diff := false
			for i := range after.Data {
				if math.Float32bits(after.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("element %d: invalidated arena %v, fresh arena %v", i, after.Data[i], want.Data[i])
				}
				if math.Float32bits(after.Data[i]) != math.Float32bits(beforeCopy.Data[i]) {
					diff = true
				}
			}
			if !diff {
				t.Fatal("weight mutation did not change the output; test is vacuous")
			}
		})
	}
}

// TestInt8ArenaZeroAllocs extends the steady-state zero-allocation guarantee
// to the quantized path: quantize-pack buffers, int32 accumulators and packed
// weight panels are all arena-cached.
func TestInt8ArenaZeroAllocs(t *testing.T) {
	samples := goldenDataset(t)[:8]
	xs := make([]*tensor.Tensor, len(samples))
	for i := range xs {
		xs[i] = samples[i].X
	}
	batch, err := nn.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	net := goldenNet(t, nn.AllModels()[0])
	q, err := nn.CalibrateInt8(net, samples, 32)
	if err != nil {
		t.Fatal(err)
	}
	ar := nn.NewInferenceArena()
	ar.Quant = q
	preds, err := net.PredictBatchArena(batch, ar, nil) // warm
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		preds, err = net.PredictBatchArena(batch, ar, preds)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state int8 PredictBatchArena allocates %.1f objects per call, want 0", allocs)
	}
}
