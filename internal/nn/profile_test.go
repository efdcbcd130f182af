package nn

import (
	"math"
	"strings"
	"testing"

	"mvml/internal/xrand"
)

// recordingProfiler captures every observation the arena path reports.
type recordingProfiler struct {
	layers []layerObs
	gemms  []gemmObs
}

type layerObs struct {
	layer   string
	seconds float64
	batch   int
}

type gemmObs struct {
	layer   string
	m, n, k int
}

func (p *recordingProfiler) ObserveLayer(layer string, seconds float64, batch int) {
	p.layers = append(p.layers, layerObs{layer, seconds, batch})
}

func (p *recordingProfiler) ObserveGemm(layer string, m, n, k int) {
	p.gemms = append(p.gemms, gemmObs{layer, m, n, k})
}

// TestProfilerDoesNotChangeOutputs: attaching a profiler to the arena must
// leave every logit bitwise identical on all three architectures, while
// reporting one dispatch per layer with the right batch size. Every ReLU of
// the three models follows a Conv2D, Dense or Residual, so each is fused:
// timed inside its producer and reported with zero seconds. So is every
// max-pool behind a Conv2D's ReLU (all of AlexNet's and LeNet's, ResNet's
// first); ResNet's second follows a residual block and keeps its own time.
func TestProfilerDoesNotChangeOutputs(t *testing.T) {
	const b = 5
	for _, name := range AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			net, err := NewModel(name, 7, xrand.New(uint64(name)))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := Stack(randomBatch(b, xrand.New(42)))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := net.ForwardBatchArena(batch, NewInferenceArena())
			if err != nil {
				t.Fatal(err)
			}

			prof := &recordingProfiler{}
			ar := NewInferenceArena()
			ar.Profiler = prof
			profiled, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range plain.Data {
				if math.Float32bits(profiled.Data[i]) != math.Float32bits(v) {
					t.Fatalf("logit %d: profiled %v, plain %v", i, profiled.Data[i], v)
				}
			}

			if len(prof.layers) == 0 {
				t.Fatal("profiler saw no layer dispatches")
			}
			fusedPool := map[string]bool{}
			for i, l := range net.Layers {
				if _, ok := l.(*MaxPool2D); ok && i >= 2 {
					_, conv := net.Layers[i-2].(*Conv2D)
					_, relu := net.Layers[i-1].(*ReLU)
					fusedPool[l.Name()] = conv && relu
				}
			}
			if !fusedPool["pool1"] {
				t.Fatalf("%v: pool1 is not behind a conv and a ReLU", name)
			}
			seen := map[string]bool{}
			for _, o := range prof.layers {
				if seen[o.layer] {
					t.Fatalf("layer %s observed twice", o.layer)
				}
				seen[o.layer] = true
				if o.batch != b {
					t.Fatalf("layer %s observed batch %d, want %d", o.layer, o.batch, b)
				}
				if o.seconds < 0 {
					t.Fatalf("layer %s observed negative duration %v", o.layer, o.seconds)
				}
				if (strings.Contains(o.layer, "relu") || fusedPool[o.layer]) && o.seconds != 0 {
					t.Fatalf("fused %s observed %v s, want 0", o.layer, o.seconds)
				}
			}
			for _, l := range net.Layers {
				if !seen[l.Name()] {
					t.Fatalf("layer %s never observed (saw %v)", l.Name(), seen)
				}
			}
			// Every GEMM must attribute to a layer that was dispatched.
			for _, g := range prof.gemms {
				if !seen[g.layer] {
					t.Fatalf("GEMM attributed to unknown layer %q", g.layer)
				}
			}
		})
	}
}

// TestProfilerGemmShapes pins the exact (m, n, k) each layer kind reports:
// Dense issues (B, out, in); Conv2D issues (outC, B·oh·ow, inC·kh·kw).
func TestProfilerGemmShapes(t *testing.T) {
	const b = 3
	r := xrand.New(7)
	net := &Network{
		Name: "shapes",
		Layers: []Layer{
			NewConv2D("conv", InputChannels, 4, 3, 1, 1, r),
			NewFlatten("flat"),
			NewDense("fc", 4*InputSize*InputSize, 5, r),
		},
	}
	batch, err := Stack(randomBatch(b, xrand.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	prof := &recordingProfiler{}
	ar := NewInferenceArena()
	ar.Profiler = prof
	if _, err := net.ForwardBatchArena(batch, ar); err != nil {
		t.Fatal(err)
	}
	want := []gemmObs{
		{"conv", 4, b * InputSize * InputSize, InputChannels * 3 * 3},
		{"fc", b, 5, 4 * InputSize * InputSize},
	}
	if len(prof.gemms) != len(want) {
		t.Fatalf("observed %d GEMMs, want %d: %+v", len(prof.gemms), len(want), prof.gemms)
	}
	for i, w := range want {
		if prof.gemms[i] != w {
			t.Fatalf("GEMM %d: got %+v, want %+v", i, prof.gemms[i], w)
		}
	}
}

// TestProfilerBytesFormula documents the byte-volume accounting used by the
// serving metrics: 4 bytes per float32 across the A, B and C operands.
func TestProfilerBytesFormula(t *testing.T) {
	m, n, k := 4, 6, 8
	if got := 4 * (m*k + k*n + m*n); got != 416 {
		t.Fatalf("byte formula drifted: %d", got)
	}
}
