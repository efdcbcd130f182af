package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// epilogueAddends are the addends the special-value test crosses with
// specialBits: ±0, ±1, ±Inf and ±NaN.
var epilogueAddends = []uint32{
	0x00000000, 0x80000000, 0x3f800000, 0xbf800000,
	0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000,
}

// epilogueForm is one calling form of the kernel: the addend (nil for the
// mask-only form) and its step.
type epilogueForm struct {
	name string
	add  []float32
	step int
}

// checkEpilogueRow runs the kernel and its Go spec on src in every relu mode
// and fails on the first bit that differs, or on a write past len(src).
func checkEpilogueRow(t *testing.T, src []float32, f epilogueForm, off int) {
	t.Helper()
	const canary = 0x7fbadbad
	for _, relu := range []bool{false, true} {
		got := make([]float32, off+len(src)+5)
		for i := range got {
			got[i] = math.Float32frombits(canary)
		}
		want := make([]float32, len(src))
		epilogue(got[off:], src, f.add, f.step, relu)
		epilogueRowGo(want, src, f.add, f.step, relu)
		for i, w := range want {
			if g := got[off+i]; math.Float32bits(g) != math.Float32bits(w) {
				a := "none"
				if f.add != nil {
					a = fmt.Sprintf("%#08x", math.Float32bits(f.add[i*f.step]))
				}
				t.Fatalf("%s relu=%v n=%d off=%d: element %d (src %#08x, addend %s): kernel %#08x, spec %#08x",
					f.name, relu, len(src), off, i, math.Float32bits(src[i]), a, math.Float32bits(g), math.Float32bits(w))
			}
		}
		for i, g := range got {
			if (i < off || i >= off+len(src)) && math.Float32bits(g) != canary {
				t.Fatalf("%s relu=%v n=%d off=%d: wrote element %d outside dst", f.name, relu, len(src), off, i)
			}
		}
	}
}

// TestEpilogueRowSpecialValues holds the SSE2 epilogue to its Go spec on
// every form — scalar addend, per-element addend, mask-only; ReLU on and off
// — over every special bit pattern crossed with ±0, ±1, ±Inf and ±NaN
// addends, at lengths 0–33 (vector body and scalar tail) and unaligned
// starts.
func TestEpilogueRowSpecialValues(t *testing.T) {
	if !haveAsm {
		t.Skip("no asm kernel in this build: the Go spec is the kernel")
	}
	// Every (value, addend) pair, so each one lands in a vector lane and in
	// the scalar tail as n and the start move.
	var vals, adds []float32
	for _, a := range epilogueAddends {
		for _, v := range specialBits {
			vals = append(vals, math.Float32frombits(v))
			adds = append(adds, math.Float32frombits(a))
		}
	}
	buf := make([]float32, len(vals)+3)
	addBuf := make([]float32, len(adds)+3)
	for off := 0; off < 4; off++ {
		copy(buf[off:], vals)
		copy(addBuf[off:], adds)
		for n := 0; n <= 33; n++ {
			for start := 0; start+n <= len(vals); start += max(n, 1) {
				src := buf[off+start : off+start+n]
				checkEpilogueRow(t, src, epilogueForm{"mask-only", nil, 0}, off)
				checkEpilogueRow(t, src, epilogueForm{"per-element", addBuf[off+start : off+start+n], 1}, off)
				for _, a := range epilogueAddends {
					c := math.Float32frombits(a)
					checkEpilogueRow(t, src, epilogueForm{"scalar", []float32{c, c, c, c}, 0}, off)
				}
			}
		}
	}
}

// FuzzEpilogueRow holds the kernel to its spec on arbitrary bit patterns:
// data supplies the row (and, rotated, the per-element addends), c the
// scalar addend.
func FuzzEpilogueRow(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0xff, 1, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f}, uint32(0x3f800000), uint8(0), uint8(1))
	f.Add([]byte{1, 0, 0x80, 0xff, 0, 0, 0, 0x80, 0x12, 0x34, 0xa0, 0x7f, 0, 0, 0x80, 0xbf, 9}, uint32(0xffc00000), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, c uint32, form, off uint8) {
		if !haveAsm {
			t.Skip("no asm kernel in this build: the Go spec is the kernel")
		}
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		add := make([]float32, len(src))
		for i := range add {
			add[i] = src[(i+1)%len(src)]
		}
		cf := math.Float32frombits(c)
		forms := []epilogueForm{
			{"mask-only", nil, 0},
			{"per-element", add, 1},
			{"scalar", []float32{cf, cf, cf, cf}, 0},
		}
		checkEpilogueRow(t, src, forms[int(form)%len(forms)], int(off%4))
	})
}

// chainReference is the unfused arena forward: one ForwardBatchArena call per
// layer, residual bodies included, and the residual sum on the Go spec.
func chainReference(t *testing.T, layers []Layer, x *tensor.Tensor, ar *InferenceArena) *tensor.Tensor {
	t.Helper()
	for _, l := range layers {
		res, ok := l.(*Residual)
		if !ok {
			y, err := l.ForwardBatchArena(x, ar)
			if err != nil {
				t.Fatalf("layer %s: %v", l.Name(), err)
			}
			x = y
			continue
		}
		body := chainReference(t, res.Body, x, ar)
		skip := x
		if res.Proj != nil {
			skip = chainReference(t, []Layer{res.Proj}, x, ar)
		}
		sum := tensor.New(body.Shape...)
		epilogueRowGo(sum.Data, body.Data, skip.Data, 1, false)
		x = sum
	}
	return x
}

// outBuffers reports, for every ReLU and Conv2D in layers (residual bodies
// included), whether it wrote an output buffer of its own in ar — false for
// a fused ReLU, and for a conv whose pool ran its epilogue.
func outBuffers(layers []Layer, ar *InferenceArena, into map[string]bool) {
	for _, l := range layers {
		switch l := l.(type) {
		case *ReLU, *Conv2D:
			into[l.Name()] = ar.bufs[arenaKey{l, arenaOut}] != nil
		case *Residual:
			outBuffers(l.Body, ar, into)
		}
	}
}

// TestFusedReLUBoundaries pins the edges of the fusion: a ReLU first, last
// or twice in a row, a fused pair closing a residual body, and a ReLU behind
// a Dropout (never fused: Dropout has no output pass of its own, and the
// tensor it passes on is its input); and of the pool fusion: size 2 and 3
// (the SIMD kernel and the spec loop), an odd plane whose last row and
// column no window covers, and a pool behind a bare conv or a residual
// block (never fused). Every net must be bit-equal to the layer-by-layer
// chain on the float and the int8 arena, must leave its input untouched,
// must fuse exactly the ReLUs that follow a Conv2D, Dense or Residual, and
// on the float arena exactly the pools behind a Conv2D and its ReLU.
func TestFusedReLUBoundaries(t *testing.T) {
	r := xrand.New(29)
	conv := func(name string, in, out int) *Conv2D { return NewConv2D(name, in, out, 3, 1, 1, r) }
	cases := []struct {
		name   string
		layers []Layer
		fused  []string // ReLUs folded into their producer
		pooled []string // convs whose pool runs the epilogue (float only)
	}{
		{"relu-first", []Layer{
			NewReLU("relu0"), conv("conv", 2, 3), NewReLU("relu1"),
			NewFlatten("flat"), NewDense("fc", 3*36, 4, r),
		}, []string{"relu1"}, nil},
		{"relu-last", []Layer{
			conv("conv", 2, 3), NewFlatten("flat"), NewDense("fc", 3*36, 4, r), NewReLU("relu-out"),
		}, []string{"relu-out"}, nil},
		{"relu-relu", []Layer{
			conv("conv", 2, 3), NewReLU("relu1"), NewReLU("relu2"),
			NewFlatten("flat"), NewDense("fc", 3*36, 4, r), NewReLU("relu3"), NewReLU("relu4"),
		}, []string{"relu1", "relu3"}, nil},
		{"residual-body", []Layer{
			conv("stem", 2, 3),
			NewResidual("res1", nil, conv("res1-a", 3, 3), NewReLU("res1-relu-a"), conv("res1-b", 3, 3), NewReLU("res1-relu-b")),
			NewReLU("relu1"),
			NewResidual("res2", NewConv2D("res2-proj", 3, 4, 1, 1, 0, r), conv("res2-a", 3, 4), NewReLU("res2-relu")),
			NewFlatten("flat"), NewDense("fc", 4*36, 4, r),
		}, []string{"res1-relu-a", "res1-relu-b", "relu1", "res2-relu"}, nil},
		{"dropout", []Layer{
			NewDropout("drop0", 0.5, r), NewReLU("relu0"), conv("conv", 2, 3),
			NewResidual("res", nil, NewDropout("res-drop", 0.5, r), NewReLU("res-relu"), conv("res-conv", 3, 3)),
			NewFlatten("flat"), NewDropout("drop1", 0.5, r), NewReLU("relu1"), NewDense("fc", 3*36, 4, r),
		}, nil, nil},
		{"conv-relu-pool", []Layer{
			conv("conv1", 2, 3), NewReLU("relu1"), NewMaxPool2D("pool1", 2),
			conv("conv2", 3, 4), NewReLU("relu2"), NewMaxPool2D("pool2", 3),
			NewFlatten("flat"), NewDense("fc", 4, 4, r),
		}, []string{"relu1", "relu2"}, []string{"conv1", "conv2"}},
		{"odd-plane", []Layer{
			NewConv2D("conv", 2, 3, 2, 1, 0, r), NewReLU("relu1"), NewMaxPool2D("pool", 2),
			NewFlatten("flat"), NewDense("fc", 3*4, 4, r),
		}, []string{"relu1"}, []string{"conv"}},
		{"pool-unfused", []Layer{
			conv("conv", 2, 3), NewMaxPool2D("pool1", 2), NewReLU("relu1"),
			NewResidual("res", nil, conv("res-conv", 3, 3)), NewReLU("relu2"), NewMaxPool2D("pool2", 3),
			NewFlatten("flat"), NewDense("fc", 3, 4, r),
		}, []string{"relu2"}, nil},
	}
	const b = 3
	clean := tensor.New(b, 2, 6, 6)
	clean.RandomizeNormal(r, 0, 1)
	special := clean.Clone()
	for i, bits := range specialBits {
		special.Data[(i*7)%len(special.Data)] = math.Float32frombits(bits)
	}
	for _, tc := range cases {
		net := &Network{Name: tc.name, Layers: tc.layers}
		samples := make([]Sample, b)
		for i := range samples {
			samples[i].X = &tensor.Tensor{Shape: []int{2, 6, 6}, Data: clean.Data[i*72 : (i+1)*72]}
		}
		q, err := CalibrateInt8(net, samples, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name  string
			quant *QuantParams
			x     *tensor.Tensor
		}{{"float", nil, special}, {"int8", q, clean}} {
			t.Run(tc.name+"/"+run.name, func(t *testing.T) {
				x := run.x.Clone()
				ref := NewInferenceArena()
				ref.Quant = run.quant
				want := chainReference(t, net.Layers, x, ref)
				ar := NewInferenceArena()
				ar.Quant = run.quant
				got, err := net.ForwardBatchArena(x, ar)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("element %d: fused %#08x, layer by layer %#08x",
							i, math.Float32bits(got.Data[i]), math.Float32bits(w))
					}
				}
				for i, v := range run.x.Data {
					if math.Float32bits(x.Data[i]) != math.Float32bits(v) {
						t.Fatalf("input element %d overwritten", i)
					}
				}
				wrote := map[string]bool{}
				outBuffers(net.Layers, ar, wrote)
				fused := map[string]bool{}
				for _, name := range tc.fused {
					fused[name] = true
				}
				for _, name := range tc.pooled {
					fused[name] = run.quant == nil
				}
				for name, w := range wrote {
					if w == fused[name] {
						t.Errorf("%s: fused %v, want %v", name, !w, fused[name])
					}
				}
			})
		}
	}
}
