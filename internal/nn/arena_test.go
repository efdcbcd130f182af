package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// TestForwardBatchArenaMatchesPerSample: the arena-backed packed-GEMM path
// must reproduce the per-sample spec's logits bit for bit on all three
// architectures, including across arena reuse (dirty buffers must be fully
// overwritten).
func TestForwardBatchArenaMatchesPerSample(t *testing.T) {
	for _, name := range AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			net, err := NewModel(name, 7, xrand.New(uint64(name)))
			if err != nil {
				t.Fatal(err)
			}
			xs := randomBatch(5, xrand.New(42))
			batch, err := Stack(xs)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float32, len(xs))
			spec := NewSpec(net)
			for i, x := range xs {
				single, err := spec.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = single.Data
			}
			ar := NewInferenceArena()
			for round := 0; round < 2; round++ { // round 1 reuses dirty buffers
				out, err := net.ForwardBatchArena(batch, ar)
				if err != nil {
					t.Fatal(err)
				}
				for i := range xs {
					row := out.Data[i*7 : (i+1)*7]
					for j, v := range want[i] {
						if math.Float32bits(row[j]) != math.Float32bits(v) {
							t.Fatalf("round=%d sample %d logit %d: arena %v, per-sample %v",
								round, i, j, row[j], v)
						}
					}
				}
			}
		})
	}
}

// TestSharedNetworkConcurrentArenas is the contract a serving pool rests on:
// one network (and, on the int8 path, one QuantParams) is read-only on the
// arena path, so any number of goroutines may run it at once, each through
// its own arena. Four goroutines hit a freshly constructed network — the very
// first use, where any lazily built layer state would be written — and every
// output must be bitwise what a single goroutine gets. The race detector is
// the other half of the assertion.
func TestSharedNetworkConcurrentArenas(t *testing.T) {
	var batches []*tensor.Tensor
	for _, b := range []int{1, 8} {
		batch, err := Stack(randomBatch(b, xrand.New(uint64(b))))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, batch)
	}
	var calib []Sample
	for _, x := range randomBatch(8, xrand.New(99)) {
		calib = append(calib, Sample{X: x})
	}
	// run returns the logits of both batches through a fresh arena.
	run := func(net *Network, quant *QuantParams) ([]float32, error) {
		ar := NewInferenceArena()
		ar.Quant = quant
		var logits []float32
		for _, batch := range batches {
			out, err := net.ForwardBatchArena(batch, ar)
			if err != nil {
				return nil, err
			}
			logits = append(logits, out.Data...)
		}
		return logits, nil
	}
	for _, name := range AllModels() {
		for _, int8Path := range []bool{false, true} {
			t.Run(name.String()+map[bool]string{false: "/float", true: "/int8"}[int8Path], func(t *testing.T) {
				net, err := NewModel(name, 7, xrand.New(uint64(name)))
				if err != nil {
					t.Fatal(err)
				}
				var quant *QuantParams
				if int8Path {
					if quant, err = CalibrateInt8(net, calib, 8); err != nil {
						t.Fatal(err)
					}
				}
				const goroutines = 4
				got := make([][]float32, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						got[g], errs[g] = run(net, quant)
					}(g)
				}
				wg.Wait()
				want, err := run(net, quant)
				if err != nil {
					t.Fatal(err)
				}
				for g := range got {
					if errs[g] != nil {
						t.Fatalf("goroutine %d: %v", g, errs[g])
					}
					for i, v := range want {
						if math.Float32bits(got[g][i]) != math.Float32bits(v) {
							t.Fatalf("goroutine %d logit %d: %v, single-goroutine %v", g, i, got[g][i], v)
						}
					}
				}
			})
		}
	}
}

// TestPredictBatchArenaZeroAllocs is the steady-state serving guarantee: with
// a warmed arena and a reused prediction slice, a full conv-net batch predict
// performs zero heap allocations. So does Predict, a batch of one on the
// network's own scratch, weight repack included.
func TestPredictBatchArenaZeroAllocs(t *testing.T) {
	for _, name := range AllModels() {
		t.Run(name.String(), func(t *testing.T) {
			net, err := NewModel(name, 7, xrand.New(uint64(name)))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := Stack(randomBatch(8, xrand.New(8)))
			if err != nil {
				t.Fatal(err)
			}
			ar := NewInferenceArena()
			preds, err := net.PredictBatchArena(batch, ar, nil) // warm the arena
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				preds, err = net.PredictBatchArena(batch, ar, preds)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state PredictBatchArena allocates %.1f objects per call, want 0", allocs)
			}
			x := randomBatch(1, xrand.New(9))[0]
			if _, err := net.Predict(x); err != nil { // warm the scratch
				t.Fatal(err)
			}
			allocs = testing.AllocsPerRun(50, func() {
				if _, err := net.Predict(x); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Predict allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestForwardBatchArenaRejectsNilArena: there is no arena-less batched path
// to fall back to, so a nil arena is reported rather than dereferenced.
func TestForwardBatchArenaRejectsNilArena(t *testing.T) {
	net, err := NewModel(ModelLeNet, 7, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Stack(randomBatch(2, xrand.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatchArena(batch, nil); err == nil {
		t.Fatal("ForwardBatchArena accepted a nil arena")
	}
	if _, err := net.PredictBatchArena(batch, nil, nil); err == nil {
		t.Fatal("PredictBatchArena accepted a nil arena")
	}
}

// TestForwardBatchArenaRejectsEmptyBatch: a (0, C, H, W) batch used to reach
// the GEMM and fail as "GemmPacked on unpacked operands"; past that, argmaxRows
// would divide by the batch size. It is refused at the door instead.
func TestForwardBatchArenaRejectsEmptyBatch(t *testing.T) {
	net := NewLeNetSmall(5, xrand.New(3))
	empty := &tensor.Tensor{Shape: []int{0, InputChannels, InputSize, InputSize}}
	ar := NewInferenceArena()
	if _, err := net.ForwardBatchArena(empty, ar); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("ForwardBatchArena on an empty batch: err = %v, want an empty-batch error", err)
	}
	if _, err := net.PredictBatchArena(empty, ar, nil); err == nil {
		t.Fatal("PredictBatchArena accepted an empty batch")
	}
}

// TestConvForwardBatchArenaRejectsKernelLargerThanInput: a 3×3 kernel at
// stride 2 has no position on a 2×2 plane. Conv2DShape used to truncate that
// to one output pixel, so the arena convolved a phantom window read from past
// the image; it is refused instead, like any other empty output.
func TestConvForwardBatchArenaRejectsKernelLargerThanInput(t *testing.T) {
	conv := NewConv2D("conv", 1, 2, 3, 2, 0, xrand.New(4))
	if _, err := conv.ForwardBatchArena(tensor.New(1, 1, 2, 2), NewInferenceArena()); err == nil {
		t.Fatal("Conv2D.ForwardBatchArena accepted a kernel larger than its input")
	}
}

// TestMaxPool2x2AllSpecialWindows drives every 2×2 window over {NaN, −NaN, −0,
// +0, −1, 1, +Inf} — 7⁴ of them — through the batched pool at widths that put
// each window in every SIMD lane, in the scalar tail and beside a dropped odd
// column, and requires the bits of the per-sample Forward: which NaN or which
// zero wins depends on the fold order, not just on the values.
func TestMaxPool2x2AllSpecialWindows(t *testing.T) {
	vals := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		math.Float32frombits(0x80000000), 0, -1, 1, float32(math.Inf(1)),
	}
	nv := len(vals)
	windows := nv * nv * nv * nv
	pool := NewMaxPool2D("pool", 2)
	ar := NewInferenceArena()
	for _, w := range []int{2, 3, 8, 9, 10, 11, 14, 15, 24, 25} {
		ow := w / 2
		oh := (windows + ow - 1) / ow
		h := 2*oh + w%2 // odd widths also get a dropped last row
		batch := tensor.New(2, 1, h, w)
		batch.Fill(float32(math.NaN())) // odd column, last row, unused windows
		for s := 0; s < 2; s++ {
			plane := batch.Data[s*h*w : (s+1)*h*w]
			for i := 0; i < windows; i++ {
				j := i
				if s == 1 {
					j = windows - 1 - i // the second sample shifts every window's lane
				}
				oy, ox := i/ow, i%ow
				plane[(2*oy)*w+2*ox] = vals[j%nv]
				plane[(2*oy)*w+2*ox+1] = vals[j/nv%nv]
				plane[(2*oy+1)*w+2*ox] = vals[j/nv/nv%nv]
				plane[(2*oy+1)*w+2*ox+1] = vals[j/nv/nv/nv]
			}
		}
		got, err := pool.ForwardBatchArena(batch, ar)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			x, err := tensor.FromSlice(batch.Data[s*h*w:(s+1)*h*w], 1, h, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := specOf(pool).Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, wv := range want.Data {
				if gv := got.Data[s*oh*ow+i]; math.Float32bits(gv) != math.Float32bits(wv) {
					t.Fatalf("w=%d sample %d window (%d,%d): batched bits %#x, Forward bits %#x",
						w, s, i/ow, i%ow, math.Float32bits(gv), math.Float32bits(wv))
				}
			}
		}
	}
}

// checkMaxPoolBackward runs the batched max-pool backward over x (B, C, H, W)
// and g on a gradient buffer poisoned with NaN, and requires, sample by
// sample, the bits of the spec's backward: the output gradient scattered
// onto the argmax the per-sample Forward recorded, every other pixel +0.
func checkMaxPoolBackward(t *testing.T, what string, pool *MaxPool2D, x, g *tensor.Tensor) {
	t.Helper()
	sc := &scratch{ar: NewInferenceArena()}
	sc.ar.tensor(pool, arenaGrad, x.Shape...).Fill(float32(math.NaN()))
	got, err := pool.backwardBatch(x, g, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, plane := x.Shape[0], x.Len()/x.Shape[0]
	gplane := g.Len() / b
	for s := 0; s < b; s++ {
		spec := specOf(pool)
		xs := &tensor.Tensor{Shape: x.Shape[1:], Data: x.Data[s*plane : (s+1)*plane]}
		y, err := spec.Forward(xs, true)
		if err != nil {
			t.Fatal(err)
		}
		gs := &tensor.Tensor{Shape: y.Shape, Data: g.Data[s*gplane : (s+1)*gplane]}
		want, err := spec.backward(pool, gs)
		if err != nil {
			t.Fatal(err)
		}
		for i, wv := range want.Data {
			if gv := got.Data[s*plane+i]; math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("%s: sample %d pixel %d: batched bits %#x, spec bits %#x", what, s, i,
					math.Float32bits(gv), math.Float32bits(wv))
			}
		}
	}
}

// TestMaxPoolBackwardMatchesSpec holds the 2×2 backward kernel and the
// generic window loop to the spec: odd sizes, whose uncovered last row and
// column get +0 even on a dirty buffer; a NaN seed, which keeps its place,
// and a NaN elsewhere, which never wins; ties, where the first maximum wins;
// and −0 and NaN gradients, which land as +0 + g.
func TestMaxPoolBackwardMatchesSpec(t *testing.T) {
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	r := xrand.New(31)
	random := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		x.RandomizeUniform(r, -1, 1)
		return x
	}
	from := func(data []float32, shape ...int) *tensor.Tensor {
		x, err := tensor.FromSlice(data, shape...)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for _, c := range []struct {
		name string
		size int
		x, g *tensor.Tensor
	}{
		{"odd 7x7", 2, random(2, 3, 7, 7), random(2, 3, 3, 3)},
		{"odd 5x6", 2, random(2, 3, 5, 6), random(2, 3, 2, 3)},
		{"even 24x24", 2, random(2, 2, 24, 24), random(2, 2, 12, 12)},
		{"size 3, generic", 3, random(2, 3, 7, 8), random(2, 3, 2, 2)},
		{"NaN seed", 2, from([]float32{nan, 5, 7, 9}, 1, 1, 2, 2), from([]float32{3}, 1, 1, 1, 1)},
		{"NaN later", 2, from([]float32{1, nan, 0.5, 2, 3, 4, nan, 0}, 1, 1, 2, 4), from([]float32{3, 4}, 1, 1, 1, 2)},
		{"ties", 2, from([]float32{1, 1, 2, 0, 1, 1, 2, 2, negZero, 0, 5, 5, 0, negZero, 5, 5}, 1, 1, 4, 4),
			from([]float32{1, 2, 3, 4}, 1, 1, 2, 2)},
		{"-0 and NaN gradients", 2, random(1, 2, 5, 9), from([]float32{negZero, nan, 1, negZero, nan, 2, 3, negZero,
			nan, negZero, 4, 5, negZero, negZero, nan, 6}, 1, 2, 2, 4)},
		{"-0 and NaN gradients, size 3", 3, random(1, 1, 7, 7), from([]float32{negZero, nan, 1, negZero}, 1, 1, 2, 2)},
	} {
		checkMaxPoolBackward(t, c.name, NewMaxPool2D("pool", c.size), c.x, c.g)
	}

	// Every window over the special values of TestMaxPool2x2AllSpecialWindows,
	// with gradients cycling through ±0 and NaN, in every SIMD lane, the
	// scalar tail and beside an uncovered column and row.
	vals := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		negZero, 0, -1, 1, float32(math.Inf(1)),
	}
	grads := []float32{1.5, negZero, math.Float32frombits(0x7fc00003), 0, -2}
	nv := len(vals)
	windows := nv * nv * nv * nv
	for _, w := range []int{2, 3, 8, 9, 10, 11, 24, 25} {
		ow := w / 2
		oh := (windows + ow - 1) / ow
		h := 2*oh + w%2
		x := tensor.New(1, 1, h, w)
		x.Fill(-1)
		g := tensor.New(1, 1, oh, ow)
		for i := range g.Data {
			g.Data[i] = grads[i%len(grads)]
		}
		for i := 0; i < windows; i++ {
			oy, ox := i/ow, i%ow
			x.Data[(2*oy)*w+2*ox] = vals[i%nv]
			x.Data[(2*oy)*w+2*ox+1] = vals[i/nv%nv]
			x.Data[(2*oy+1)*w+2*ox] = vals[i/nv/nv%nv]
			x.Data[(2*oy+1)*w+2*ox+1] = vals[i/nv/nv/nv]
		}
		checkMaxPoolBackward(t, fmt.Sprintf("special windows w=%d", w), NewMaxPool2D("pool", 2), x, g)
	}
}

// specialBits covers every class of float32 bit pattern, class boundaries
// included.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // ±denormal
	0x00800000, 0x3f800000, 0x7f7fffff, 0x80800000, 0xbf800000, 0xff7fffff, // ±finite
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0x7fc12345, 0x7fffffff, 0xffc00000, 0xffc12345, 0xffffffff, // quiet NaN, sign clear and set
	0x7f800001, 0x7fa00000, 0x7fbfffff, 0xff800001, 0xffa00000, 0xffbfffff, // signalling NaN, sign clear and set
}

// TestCenterSpecialValues: Center runs v − off as v + (−off) on the epilogue
// kernel; on every class of bit pattern, under offsets ±0, ±1, ±Inf and
// ±NaN, it must write the bits of the spec's v − off.
func TestCenterSpecialValues(t *testing.T) {
	x := tensor.New(1, len(specialBits)+7) // a tail past the kernel's eight
	for i := range x.Data {
		x.Data[i] = math.Float32frombits(specialBits[i%len(specialBits)])
	}
	for _, ob := range epilogueAddends {
		c := NewCenter("center", math.Float32frombits(ob))
		want, err := specOf(c).Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ForwardBatchArena(x, NewInferenceArena())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data {
			if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("offset %#08x, v %#08x: got %#08x, spec %#08x", ob, math.Float32bits(x.Data[i]), math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// TestReLUSpecialValues checks the branch-free ReLU against Forward's rule on
// every class of bit pattern, class boundaries included.
func TestReLUSpecialValues(t *testing.T) {
	bits := specialBits
	x := tensor.New(len(bits), 1)
	for i, b := range bits {
		x.Data[i] = math.Float32frombits(b)
	}
	relu := NewReLU("relu")
	want, err := specOf(relu).Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relu.ForwardBatchArena(x, NewInferenceArena())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Errorf("relu(%#08x): batched bits %#08x, Forward bits %#08x", b, g, w)
		}
	}
}

// TestReLUMaskSameOnOutput: a training step records a fused ReLU's output,
// not its input, and ReLU.backwardBatch reads its mask off whichever tensor it
// got. Over all 2³² float32 bit patterns, the gradient it passes back must be
// the same from x as from relu(x).
func TestReLUMaskSameOnOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("walks all 2³² float32 bit patterns")
	}
	const chunk = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			relu := NewReLU("relu")
			sc := &scratch{ar: NewInferenceArena()}
			x, y, g := tensor.New(chunk), tensor.New(chunk), tensor.New(chunk)
			g.Fill(1)
			fromX := make([]float32, chunk)
			for hi := uint32(w); hi < 1<<32/chunk; hi += uint32(workers) {
				for lo := range x.Data {
					x.Data[lo] = math.Float32frombits(hi*chunk + uint32(lo))
				}
				reluInto(y.Data, x.Data)
				dx, err := relu.backwardBatch(x, g, sc)
				if err != nil {
					errs[w] = err
					return
				}
				copy(fromX, dx.Data)
				dy, err := relu.backwardBatch(y, g, sc)
				if err != nil {
					errs[w] = err
					return
				}
				for lo, v := range dy.Data {
					if math.Float32bits(v) != math.Float32bits(fromX[lo]) {
						errs[w] = fmt.Errorf("x = %#08x, relu(x) = %#08x: gradient %v from x, %v from relu(x)",
							hi*chunk+uint32(lo), math.Float32bits(y.Data[lo]), fromX[lo], v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaxPoolNaNConsistency is the regression for the -Inf/-1 seeding bug:
// on an all-NaN window Forward used to return -Inf with argmax -1 (Backward
// then panicked on dx.Data[-1]) while the batched path returned NaN. Both
// paths now seed with the window's first element, so NaN propagates
// identically and Backward routes the gradient to a real index.
func TestMaxPoolNaNConsistency(t *testing.T) {
	nan := float32(math.NaN())
	pool := NewMaxPool2D("pool", 2)
	spec := specOf(pool)
	for _, tc := range []struct {
		name string
		data []float32
	}{
		{"all-NaN", []float32{nan, nan, nan, nan}},
		{"NaN-first", []float32{nan, 5, 1, 2}},
		{"NaN-later", []float32{1, nan, 3, 2}},
		{"finite", []float32{1, 5, 3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := tensor.FromSlice(append([]float32(nil), tc.data...), 1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			y, err := spec.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			xb, err := tensor.FromSlice(append([]float32(nil), tc.data...), 1, 1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			yb, err := pool.ForwardBatchArena(xb, NewInferenceArena())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float32bits(y.Data[0]) != math.Float32bits(yb.Data[0]) {
				t.Fatalf("Forward %v, ForwardBatchArena %v", y.Data[0], yb.Data[0])
			}
			grad := tensor.New(1, 1, 1)
			grad.Fill(1)
			if err := spec.Backward(grad); err != nil { // used to panic on dx.Data[-1]
				t.Fatal(err)
			}
		})
	}
}

// TestReLUNaNConsistency: Forward used to zero NaN activations (v > 0 false)
// while the batched path kept them; both must now propagate NaN.
func TestReLUNaNConsistency(t *testing.T) {
	nan := float32(math.NaN())
	relu := NewReLU("relu")
	x, err := tensor.FromSlice([]float32{nan, -1, 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := specOf(relu).Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := relu.ForwardBatchArena(x, NewInferenceArena())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(y.Data[0])) {
		t.Fatalf("Forward zeroed a NaN activation: got %v", y.Data[0])
	}
	for i := range y.Data {
		if math.Float32bits(y.Data[i]) != math.Float32bits(yb.Data[i]) {
			t.Fatalf("element %d: Forward %v, ForwardBatchArena %v", i, y.Data[i], yb.Data[i])
		}
	}
}

// TestDenseBackwardInputAliasing is the regression for the lastX aliasing
// hazard: a caller that reuses its input buffer between Forward and Backward
// must still get gradients computed from the values seen at Forward time.
func TestDenseBackwardInputAliasing(t *testing.T) {
	r := xrand.New(7)
	d := NewDense("fc", 3, 2, r)
	x, err := tensor.FromSlice([]float32{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := specOf(d)
	if _, err := spec.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	x.Fill(-100) // caller reuses its buffer before Backward
	grad, err := tensor.FromSlice([]float32{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Backward(grad); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 1, 2, 3} // dW[o][i] = grad[o] * x_forward[i]
	for i, v := range want {
		if d.dW.Data[i] != v {
			t.Fatalf("dW[%d] = %v, want %v (gradient computed from mutated buffer)", i, d.dW.Data[i], v)
		}
	}
}
