package tensor

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"mvml/internal/xrand"
)

// PackIm2Col packs the whole column matrix of a (B, C, H, W) batch — what
// Pack would produce from Im2ColBatch's output — panel by panel straight from
// the image, on GemmIm2Col's column walk and packPanel kernels. It is the
// reference the tile-at-a-time packing is held to: the panels GemmIm2Col
// packs one tile at a time are these, and the tests below pin them slot for
// slot against Pack of the materialised matrix.
func (p *PackedB) PackIm2Col(in *Tensor, kh, kw, stride, pad int) error {
	g, err := newIm2ColGeom("PackedB.PackIm2Col", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	if p.aliases(in) {
		return fmt.Errorf("tensor: PackedB.PackIm2Col input aliases the packed operand")
	}
	src := p.image(in, &g)
	k, n := g.rows(), g.cols()
	panels := (n + gemmNR - 1) / gemmNR
	p.data = grow(p.data, panels*k*gemmNR)
	p.K, p.N = k, n
	walk := newColWalk(&g)
	for jp := 0; jp < panels; jp++ {
		walk.panel(p.data[jp*k*gemmNR:(jp+1)*k*gemmNR], src, p.offs, min(gemmNR, n-jp*gemmNR))
	}
	return nil
}

type im2colCase struct {
	b, c, h, w          int
	kh, kw, stride, pad int
}

func (g im2colCase) String() string {
	return fmt.Sprintf("in(%d,%d,%d,%d) k%dx%d s%d p%d", g.b, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
}

// checkPackIm2Col requires the fused packers to produce exactly the panels
// Pack builds from the materialised Im2ColBatch matrix, float and int8, and
// PackIm2ColTransposed exactly the ones PackTransposed builds from it. pb and
// qb are the (possibly dirty, reused) operands under test; pb is left holding
// PackIm2Col's panels.
func checkPackIm2Col(t *testing.T, g im2colCase, in *Tensor, pb *PackedB, qb *PackedBInt8) {
	t.Helper()
	oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
	cols := New(g.c*g.kh*g.kw, g.b*oh*ow)
	if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, cols); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	checkPackIm2ColTransposed(t, g, in, cols, pb)
	var want PackedB
	if err := want.Pack(cols); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if err := pb.PackIm2Col(in, g.kh, g.kw, g.stride, g.pad); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if pb.K != want.K || pb.N != want.N {
		t.Fatalf("%v: packed (%d, %d), want (%d, %d)", g, pb.K, pb.N, want.K, want.N)
	}
	bitsEqual(t, g.String()+" float panels", pb.data, want.data)

	inv := Int8ScaleFor(MaxAbs(in.Data)).Inv
	var qwant PackedBInt8
	if err := qwant.Pack(cols, inv); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if err := qb.PackIm2Col(in, g.kh, g.kw, g.stride, g.pad, inv); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if qb.K != qwant.K || qb.N != qwant.N || len(qb.data) != len(qwant.data) {
		t.Fatalf("%v: int8 packed (%d, %d) len %d, want (%d, %d) len %d",
			g, qb.K, qb.N, len(qb.data), qwant.K, qwant.N, len(qwant.data))
	}
	for i := range qwant.data {
		if qb.data[i] != qwant.data[i] {
			t.Fatalf("%v: int8 panel slot %d = %d, want %d", g, i, qb.data[i], qwant.data[i])
		}
	}
}

// checkPackIm2ColTransposed requires PackIm2ColTransposed to produce exactly
// the panels PackTransposed builds from cols, the materialised column matrix
// of in.
func checkPackIm2ColTransposed(t *testing.T, g im2colCase, in, cols *Tensor, pb *PackedB) {
	t.Helper()
	var want PackedB
	if err := want.PackTransposed(cols); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if err := pb.PackIm2ColTransposed(in, g.kh, g.kw, g.stride, g.pad); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	if pb.K != want.K || pb.N != want.N {
		t.Fatalf("%v: transposed packed (%d, %d), want (%d, %d)", g, pb.K, pb.N, want.K, want.N)
	}
	bitsEqual(t, g.String()+" transposed panels", pb.data, want.data)
}

// TestPackIm2ColMatchesPackOfIm2ColBatch: the column matrix is never built on
// the inference path, so its packed form is pinned against the one that is,
// on every pack arm: the Go panel packer, and the AVX2 load and gather.
func TestPackIm2ColMatchesPackOfIm2ColBatch(t *testing.T) {
	cases := []im2colCase{
		{1, 2, 4, 12, 3, 3, 1, 0},  // ow = 10: the second panel crosses an output row
		{3, 2, 5, 5, 3, 3, 1, 1},   // 25 columns a sample: the fourth panel crosses a sample
		{5, 1, 3, 3, 3, 3, 1, 0},   // one column a sample: five samples in one ragged panel
		{1, 2, 11, 11, 3, 3, 2, 0}, // stride 2, 25 columns: ragged last panel
		{2, 2, 10, 10, 3, 3, 1, 0}, // pad 0: the input itself is the image
		{2, 1, 4, 4, 1, 1, 1, 0},   // 1×1, one channel: consecutive pixels across rows
		{2, 3, 9, 9, 3, 3, 2, 1},   // stride 2
		{1, 2, 7, 10, 3, 3, 2, 0},  // stride 2, ragged width
		{2, 2, 8, 8, 5, 5, 3, 2},   // stride 3
		{1, 1, 3, 3, 3, 3, 1, 3},   // pad beyond the kernel's reach: whole rows of zeros
		{2, 2, 4, 5, 3, 3, 1, 4},   // same, ow not a multiple of 8
		{1, 2, 2, 2, 3, 3, 2, 3},   // padding only reachable at stride 2
		{3, 4, 6, 6, 1, 1, 1, 0},   // 1×1 kernel
		{2, 3, 5, 5, 1, 1, 2, 0},   // 1×1 kernel, stride 2
		{1, 1, 5, 7, 3, 3, 1, 1},   // cols = 35: one ragged panel
		{1, 3, 11, 13, 5, 3, 1, 1}, // non-square kernel, odd K (int8 pads the last pair)
	}
	// The three models' convolutions at the batch sizes the shard runs.
	for _, b := range []int{1, 8, 32} {
		cases = append(cases,
			im2colCase{b, 3, 24, 24, 5, 5, 1, 0},  // lenet conv1
			im2colCase{b, 6, 10, 10, 5, 5, 1, 0},  // lenet conv2
			im2colCase{b, 3, 24, 24, 3, 3, 1, 1},  // alexnet conv1, resnet stem
			im2colCase{b, 16, 12, 12, 3, 3, 1, 1}, // alexnet conv2, resnet res1
			im2colCase{b, 32, 6, 6, 3, 3, 1, 1},   // alexnet conv3, resnet res2-conv2
			im2colCase{b, 16, 6, 6, 3, 3, 1, 1},   // resnet res2-conv1
			im2colCase{b, 16, 6, 6, 1, 1, 1, 0},   // resnet res2-proj
		)
	}
	r := xrand.New(15)
	for _, g := range cases {
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -1, 1)
		forEachGemmArm(func(arm int) {
			t.Run(gemmArmNames[arm], func(t *testing.T) {
				checkPackIm2Col(t, g, in, &PackedB{}, &PackedBInt8{})
			})
		})
	}
}

// TestPackIm2ColDirtyReuseAcrossShapes is TestIm2ColBatchDirtyReuseAcrossShapes
// for the fused packers: the arena keeps one PackedB / PackedBInt8 per layer and
// repacks it at every batch size, so panels, the padded image and the row
// scratch hold stale values past (and inside) the new extent. Poison all of
// them between calls; every in-extent slot, padding included, must be
// rewritten, on every pack arm.
func TestPackIm2ColDirtyReuseAcrossShapes(t *testing.T) {
	// Deliberate shrink transitions: batch 4→1, stride 1→2 (spatial collapse),
	// pad 2→0, and a grow back at the end to catch under-slicing too.
	geoms := []im2colCase{
		{4, 3, 12, 12, 3, 3, 1, 2},
		{1, 3, 12, 12, 3, 3, 1, 2},
		{2, 3, 12, 12, 3, 3, 2, 1},
		{2, 2, 8, 8, 5, 5, 2, 0},
		{1, 1, 6, 6, 3, 3, 3, 0},
		{4, 3, 12, 12, 3, 3, 1, 2},
	}
	forEachGemmArm(func(arm int) {
		r := xrand.New(21)
		var pb PackedB
		var qb PackedBInt8
		for _, g := range geoms {
			in := New(g.b, g.c, g.h, g.w)
			in.RandomizeUniform(r, -1, 1)
			for _, buf := range [][]float32{pb.data[:cap(pb.data)], pb.padded[:cap(pb.padded)], qb.rows[:cap(qb.rows)]} {
				for i := range buf {
					buf[i] = 1e30 // sentinel: never a legal im2col value here
				}
			}
			for i := range qb.data[:cap(qb.data)] {
				qb.data[:cap(qb.data)][i] = 0x7fff // outside the int8 range
			}
			t.Run(gemmArmNames[arm], func(t *testing.T) { checkPackIm2Col(t, g, in, &pb, &qb) })
		}
	})
}

// TestPackIm2ColGatherSpanGuard: VGATHERDPS indexes its lanes with signed
// 32-bit offsets, so a panel whose lanes span more floats than that must fall
// to the Go packer. Such a panel needs an image of over 2³¹ floats, so the
// guard itself is pinned at its boundary.
func TestPackIm2ColGatherSpanGuard(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold a span past int32")
	}
	span := math.MaxInt32
	if !gatherFits(span) {
		t.Fatalf("gatherFits(%d) = false, want true", span)
	}
	if span++; gatherFits(span) {
		t.Fatalf("gatherFits(%d) = true: the int32 lane index would wrap", span)
	}
}

// TestPackPanelTakesAsmFromAVX2Up: on the AVX2 arm and every wider one the
// conv packer's column walk must pack through the assembly load and gather
// panels, not the Go loop. They write the same bits, so only the bounds
// check tells them apart: the Go packer panics on a src whose capacity ends
// before the last row's lanes, while the assembly reads the (valid) backing
// array behind it. Stride 1 along an output row makes eight consecutive
// lanes (the load), stride 1 over rows four wide two runs of four (the
// load and blend), stride 2 every other pixel (the gather).
func TestPackPanelTakesAsmFromAVX2Up(t *testing.T) {
	backing := make([]float32, 64)
	for i := range backing {
		backing[i] = float32(i)
	}
	src := backing[:8:8]
	off := []int{0, 16} // the second row lies past cap(src)
	forEachGemmArm(func(arm int) {
		if arm < armAVX2 {
			return
		}
		for _, walk := range []colWalk{
			{g: &im2colGeom{stride: 1, ow: 64, oh: 64}},
			{g: &im2colGeom{stride: 1, ow: 4, oh: 64}, rowStep: 2},
			{g: &im2colGeom{stride: 2, ow: 64, oh: 64}},
		} {
			lanes := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if walk.g.ow == 4 {
				lanes = []int{0, 1, 2, 3, 6, 7, 8, 9}
			}
			dst := make([]float32, len(off)*gemmNR)
			func() {
				defer func() {
					if recover() != nil {
						t.Fatalf("%s arm packed the walk %+v with the Go packer", gemmArmNames[arm], walk)
					}
				}()
				walk.panel(dst, src, off, gemmNR)
			}()
			for kk, o := range off {
				for c, l := range lanes {
					if got, want := dst[kk*gemmNR+c], backing[o+l*walk.g.stride]; got != want {
						t.Fatalf("%s arm, walk %+v: row %d lane %d = %v, want %v", gemmArmNames[arm], walk, kk, c, got, want)
					}
				}
			}
		}
	})
}

// TestConvShapeKernelLargerThanPaddedInput: a kernel that does not fit the
// padded input has no output position. Conv2DShape used to truncate the
// negative quotient toward zero and report one, so every unroll of it read
// past the image.
func TestConvShapeKernelLargerThanPaddedInput(t *testing.T) {
	for _, g := range []im2colCase{
		{1, 1, 2, 2, 3, 3, 2, 0}, // h+2p = 2 < 3
		{3, 1, 9, 2, 5, 5, 3, 1}, // w+2p = 4 < 5, the fuzzer's shape
	} {
		if oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad); oh > 0 && ow > 0 {
			t.Fatalf("%v: Conv2DShape = (%d, %d), want an empty output", g, oh, ow)
		}
		in := New(g.b, g.c, g.h, g.w)
		if _, err := Im2Col(&Tensor{Shape: in.Shape[1:], Data: in.Data[:g.c*g.h*g.w]}, g.kh, g.kw, g.stride, g.pad); err == nil {
			t.Fatalf("%v: Im2Col accepted an empty output", g)
		}
		if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, New(g.c*g.kh*g.kw, g.b)); err == nil {
			t.Fatalf("%v: Im2ColBatch accepted an empty output", g)
		}
		var pb PackedB
		var qb PackedBInt8
		if err := pb.PackIm2Col(in, g.kh, g.kw, g.stride, g.pad); err == nil {
			t.Fatalf("%v: PackedB.PackIm2Col accepted an empty output", g)
		}
		if err := qb.PackIm2Col(in, g.kh, g.kw, g.stride, g.pad, 1); err == nil {
			t.Fatalf("%v: PackedBInt8.PackIm2Col accepted an empty output", g)
		}
	}
}

func TestPackIm2ColErrors(t *testing.T) {
	var pb PackedB
	var qb PackedBInt8
	if pb.PackIm2Col(New(2, 3, 4), 3, 3, 1, 0) == nil || qb.PackIm2Col(New(2, 3, 4), 3, 3, 1, 0, 1) == nil {
		t.Fatal("PackIm2Col accepted a 3-D input")
	}
	if pb.PackIm2Col(New(1, 1, 2, 2), 5, 5, 1, 0) == nil || qb.PackIm2Col(New(1, 1, 2, 2), 5, 5, 1, 0, 1) == nil {
		t.Fatal("PackIm2Col accepted an empty output")
	}
	if pb.PackIm2ColTransposed(New(2, 3, 4), 3, 3, 1, 0) == nil || pb.PackIm2ColTransposed(New(1, 1, 2, 2), 5, 5, 1, 0) == nil {
		t.Fatal("PackIm2ColTransposed accepted a 3-D input or an empty output")
	}
}

// FuzzPackIm2Col: for fuzzer-chosen geometries and a value stream with
// specials, the fused packers must match Pack(Im2ColBatch(x)) slot for slot on
// every pack arm, and the GEMM over them must match the per-sample Im2Col +
// MatMul spec.
func FuzzPackIm2Col(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(6), uint8(6), uint8(2), uint8(2), uint8(0), uint8(1), uint64(1))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(9), uint8(0), uint8(4), uint8(1), uint8(6), uint64(2))
	f.Add(uint8(7), uint8(3), uint8(11), uint8(5), uint8(4), uint8(0), uint8(2), uint8(0), uint64(3))
	f.Fuzz(func(t *testing.T, bb, cc, hh, ww, khh, kww, ss, pp uint8, seed uint64) {
		g := im2colCase{
			b: int(bb%4) + 1, c: int(cc%4) + 1, h: int(hh%12) + 1, w: int(ww%12) + 1,
			kh: int(khh%5) + 1, kw: int(kww%5) + 1, stride: int(ss%3) + 1, pad: int(pp % 7),
		}
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if oh <= 0 || ow <= 0 {
			t.Skip()
		}
		r := xrand.New(seed)
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -2, 2)
		in.Data[r.Intn(in.Len())] = float32(math.NaN())
		in.Data[r.Intn(in.Len())] = float32(math.Inf(-1))
		in.Data[r.Intn(in.Len())] = float32(math.Copysign(0, -1))
		// End to end against the executable spec. A is free of specials, so no
		// output sums two distinct NaN payloads and bit equality is exact.
		a := randomMat(r, 3, g.c*g.kh*g.kw)
		var pa PackedA
		if err := pa.Pack(a); err != nil {
			t.Fatal(err)
		}
		want := make([]*Tensor, g.b)
		plane := g.c * g.h * g.w
		for b := range want {
			cols, err := Im2Col(&Tensor{Shape: []int{g.c, g.h, g.w}, Data: in.Data[b*plane : (b+1)*plane]},
				g.kh, g.kw, g.stride, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			if want[b], err = MatMul(a, cols); err != nil {
				t.Fatal(err)
			}
		}
		forEachGemmArm(func(arm int) {
			var pb PackedB
			checkPackIm2Col(t, g, in, &pb, &PackedBInt8{})
			got := New(3, pb.N)
			if err := GemmPacked(got, &pa, &pb); err != nil {
				t.Fatal(err)
			}
			for b := range want {
				for o := 0; o < 3; o++ {
					bitsEqual(t, fmt.Sprintf("%s arm, %v sample %d row %d", gemmArmNames[arm], g, b, o),
						got.Data[o*pb.N+b*oh*ow:o*pb.N+(b+1)*oh*ow], want[b].Data[o*oh*ow:(o+1)*oh*ow])
				}
			}
		})
	})
}

// FuzzPackIm2ColTransposed: for fuzzer-chosen geometries — 1×1 and
// non-square kernels, stride 1–3, pad 0–6 — and an image with specials,
// PackIm2ColTransposed must match PackTransposed(Im2ColBatch(x)) slot for slot
// on every pack arm, the Go packer included, into a fresh operand and a dirty
// one; and a convolution's kernel gradient G·colsᵀ over one sample's panels
// must match the MatMulTransB spec over its Im2Col matrix.
func FuzzPackIm2ColTransposed(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(6), uint8(6), uint8(2), uint8(2), uint8(0), uint8(1), uint64(1))
	f.Add(uint8(2), uint8(1), uint8(4), uint8(9), uint8(0), uint8(0), uint8(1), uint8(6), uint64(2))
	f.Add(uint8(1), uint8(3), uint8(11), uint8(5), uint8(4), uint8(2), uint8(2), uint8(0), uint64(3))
	f.Add(uint8(0), uint8(3), uint8(7), uint8(7), uint8(2), uint8(2), uint8(0), uint8(1), uint64(4))
	f.Fuzz(func(t *testing.T, bb, cc, hh, ww, khh, kww, ss, pp uint8, seed uint64) {
		g := im2colCase{
			b: int(bb%3) + 1, c: int(cc%4) + 1, h: int(hh%12) + 1, w: int(ww%12) + 1,
			kh: int(khh%5) + 1, kw: int(kww%5) + 1, stride: int(ss%3) + 1, pad: int(pp % 7),
		}
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if oh <= 0 || ow <= 0 {
			t.Skip()
		}
		r := xrand.New(seed)
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -2, 2)
		in.Data[r.Intn(in.Len())] = float32(math.NaN())
		in.Data[r.Intn(in.Len())] = float32(math.Inf(-1))
		in.Data[r.Intn(in.Len())] = float32(math.Copysign(0, -1))
		cols := New(g.c*g.kh*g.kw, g.b*oh*ow)
		if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, cols); err != nil {
			t.Fatal(err)
		}
		// The first sample's kernel gradient against the spec. G is free of
		// specials, so no output sums two distinct NaN payloads.
		plane := g.c * g.h * g.w
		x0 := &Tensor{Shape: []int{1, g.c, g.h, g.w}, Data: in.Data[:plane]}
		cols0, err := Im2Col(&Tensor{Shape: []int{g.c, g.h, g.w}, Data: in.Data[:plane]}, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		gm := randomMat(r, 3, oh*ow)
		want, err := MatMulTransB(gm, cols0)
		if err != nil {
			t.Fatal(err)
		}
		var pa PackedA
		if err := pa.Pack(gm); err != nil {
			t.Fatal(err)
		}
		forEachGemmArm(func(arm int) {
			dirty := PackedB{data: make([]float32, 4096), padded: make([]float32, 4096)}
			for i := range dirty.data {
				dirty.data[i], dirty.padded[i] = float32(math.NaN()), float32(math.NaN())
			}
			for _, pb := range []*PackedB{{}, &dirty} {
				checkPackIm2ColTransposed(t, g, in, cols, pb)
				if err := pb.PackIm2ColTransposed(x0, g.kh, g.kw, g.stride, g.pad); err != nil {
					t.Fatal(err)
				}
				got := New(3, g.c*g.kh*g.kw)
				if err := GemmPacked(got, &pa, pb); err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, fmt.Sprintf("%s arm, %v dK", gemmArmNames[arm], g), got.Data, want.Data)
			}
		})
	})
}

// gemmIm2ColWant is the two-pass product GemmIm2Col must reproduce bit for
// bit: GemmPacked over Pack of the materialised Im2ColBatch matrix.
func gemmIm2ColWant(t testing.TB, g im2colCase, pa *PackedA, in *Tensor) *Tensor {
	t.Helper()
	oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
	cols := New(g.c*g.kh*g.kw, g.b*oh*ow)
	if err := Im2ColBatch(in, g.kh, g.kw, g.stride, g.pad, cols); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	var pb PackedB
	if err := pb.Pack(cols); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	want := New(pa.M, cols.Shape[1])
	if err := GemmPacked(want, pa, &pb); err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	return want
}

// checkGemmIm2Col requires GemmIm2Col into a NaN-poisoned C, through the
// (possibly dirty, reused) scratch pb, to write exactly gemmIm2ColWant.
func checkGemmIm2Col(t *testing.T, what string, g im2colCase, pa *PackedA, pb *PackedB, in *Tensor) {
	t.Helper()
	want := gemmIm2ColWant(t, g, pa, in)
	got := New(want.Shape...)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	if err := GemmIm2Col(got, pa, pb, in, g.kh, g.kw, g.stride, g.pad); err != nil {
		t.Fatalf("%s %v: %v", what, g, err)
	}
	bitsEqual(t, fmt.Sprintf("%s %v", what, g), got.Data, want.Data)
}

// TestGemmIm2ColMatchesGemmPacked: the tile-at-a-time conv GEMM must write
// the bits of the two-pass one on every GEMM arm — every column edge a tile
// walk can end on (N = 1…33 covers each residue mod 32, the AVX-512 tile's
// width, and one full tile past it), row-panel edges M = 6, 16, 32, batches
// 1–9 of the models' shapes, stride 2, pad 0, 1 and 2 — through one scratch
// poisoned with NaN before every call and reused across all the shapes.
func TestGemmIm2ColMatchesGemmPacked(t *testing.T) {
	var cases []im2colCase
	for n := 1; n <= 33; n++ {
		b := 1
		for d := 2; d <= 9; d++ {
			if n%d == 0 {
				b = d
			}
		}
		cases = append(cases, im2colCase{b, 3, 1, n / b, 3, 3, 1, 1}) // n columns
	}
	for b := 1; b <= 9; b++ {
		cases = append(cases,
			im2colCase{b, 3, 24, 24, 5, 5, 1, 0},  // lenet conv1
			im2colCase{b, 6, 10, 10, 5, 5, 1, 0},  // lenet conv2
			im2colCase{b, 3, 24, 24, 3, 3, 1, 1},  // alexnet conv1, resnet stem
			im2colCase{b, 16, 12, 12, 3, 3, 1, 1}, // alexnet conv2, resnet res1
			im2colCase{b, 16, 6, 6, 1, 1, 1, 0},   // resnet res2-proj
			im2colCase{b, 4, 11, 9, 3, 3, 2, 1},   // stride 2
			im2colCase{b, 2, 7, 7, 3, 3, 1, 2},    // pad 2
			im2colCase{b, 2, 9, 8, 5, 3, 2, 2},    // stride 2, pad 2, non-square kernel
		)
	}
	r := xrand.New(33)
	forEachGemmArm(func(arm int) {
		var pb PackedB
		for _, g := range cases {
			in := New(g.b, g.c, g.h, g.w)
			in.RandomizeUniform(r, -1, 1)
			for _, m := range []int{6, 16, 32} {
				var pa PackedA
				if err := pa.Pack(randomMat(r, m, g.c*g.kh*g.kw)); err != nil {
					t.Fatal(err)
				}
				for _, buf := range [][]float32{pb.data[:cap(pb.data)], pb.padded[:cap(pb.padded)]} {
					for i := range buf {
						buf[i] = float32(math.NaN())
					}
				}
				checkGemmIm2Col(t, fmt.Sprintf("%s arm, M %d,", gemmArmNames[arm], m), g, &pa, &pb, in)
			}
		}
	})
}

func TestGemmIm2ColErrors(t *testing.T) {
	in := New(2, 3, 5, 5)
	var pa PackedA
	if err := pa.Pack(New(4, 27)); err != nil {
		t.Fatal(err)
	}
	var pb PackedB
	if err := GemmIm2Col(New(4, 50), &pa, &pb, in, 3, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	shared := make([]float32, 200)
	for what, err := range map[string]error{
		"a 3-D input":      GemmIm2Col(New(4, 50), &pa, &pb, New(3, 5, 5), 3, 3, 1, 1),
		"an empty output":  GemmIm2Col(New(4, 2), &pa, &pb, New(2, 3, 1, 1), 3, 3, 1, 0),
		"an unpacked A":    GemmIm2Col(New(4, 50), &PackedA{}, &pb, in, 3, 3, 1, 1),
		"a kernel of K 25": GemmIm2Col(New(4, 50), &pa, &pb, in, 5, 5, 1, 2),
		"a wrong C shape":  GemmIm2Col(New(4, 49), &pa, &pb, in, 3, 3, 1, 1),
		"C aliasing input": GemmIm2Col(&Tensor{Shape: []int{4, 50}, Data: shared}, &pa, &pb, &Tensor{Shape: in.Shape, Data: shared[50:]}, 3, 3, 1, 1),
		"input in scratch": GemmIm2Col(New(4, 50), &pa, &pb, &Tensor{Shape: in.Shape, Data: pb.padded[:150]}, 3, 3, 1, 1),
		"input in a tile":  GemmIm2Col(New(4, 18), &pa, &pb, &Tensor{Shape: in.Shape, Data: pb.data[:150]}, 3, 3, 1, 0),
	} {
		if err == nil {
			t.Errorf("GemmIm2Col accepted %s", what)
		}
	}
}

// FuzzGemmIm2Col: for fuzzer-chosen geometries, A heights and an image with
// specials, GemmIm2Col must match the per-sample Im2Col + MatMul spec and
// the two-pass GemmPacked(Pack(Im2ColBatch)) bit for bit on every GEMM arm,
// through a fresh scratch and a NaN-poisoned one; and the whole-matrix
// reference packers, float and int8, must match Pack slot for slot.
func FuzzGemmIm2Col(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(6), uint8(6), uint8(2), uint8(2), uint8(0), uint8(1), uint8(5), uint64(1))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(9), uint8(0), uint8(4), uint8(1), uint8(6), uint8(15), uint64(2))
	f.Add(uint8(7), uint8(3), uint8(11), uint8(5), uint8(4), uint8(0), uint8(2), uint8(0), uint8(31), uint64(3))
	f.Add(uint8(8), uint8(2), uint8(11), uint8(11), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0), uint64(4))
	f.Fuzz(func(t *testing.T, bb, cc, hh, ww, khh, kww, ss, pp, mm uint8, seed uint64) {
		g := im2colCase{
			b: int(bb%9) + 1, c: int(cc%4) + 1, h: int(hh%12) + 1, w: int(ww%12) + 1,
			kh: int(khh%5) + 1, kw: int(kww%5) + 1, stride: int(ss%3) + 1, pad: int(pp % 7),
		}
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if oh <= 0 || ow <= 0 {
			t.Skip()
		}
		r := xrand.New(seed)
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -2, 2)
		in.Data[r.Intn(in.Len())] = float32(math.NaN())
		in.Data[r.Intn(in.Len())] = float32(math.Inf(-1))
		in.Data[r.Intn(in.Len())] = float32(math.Copysign(0, -1))
		// A is free of specials, so no output sums two distinct NaN payloads
		// and bit equality with the spec is exact.
		m := int(mm%40) + 1
		a := randomMat(r, m, g.c*g.kh*g.kw)
		var pa PackedA
		if err := pa.Pack(a); err != nil {
			t.Fatal(err)
		}
		n := g.b * oh * ow
		spec := New(m, n)
		plane := g.c * g.h * g.w
		for b := 0; b < g.b; b++ {
			cols, err := Im2Col(&Tensor{Shape: []int{g.c, g.h, g.w}, Data: in.Data[b*plane : (b+1)*plane]},
				g.kh, g.kw, g.stride, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			y, err := MatMul(a, cols)
			if err != nil {
				t.Fatal(err)
			}
			for o := 0; o < m; o++ {
				copy(spec.Data[o*n+b*oh*ow:], y.Data[o*oh*ow:(o+1)*oh*ow])
			}
		}
		forEachGemmArm(func(arm int) {
			checkPackIm2Col(t, g, in, &PackedB{}, &PackedBInt8{})
			dirty := PackedB{data: make([]float32, 4096), padded: make([]float32, 4096)}
			for i := range dirty.data {
				dirty.data[i], dirty.padded[i] = float32(math.NaN()), float32(math.NaN())
			}
			for _, pb := range []*PackedB{{}, &dirty} {
				checkGemmIm2Col(t, gemmArmNames[arm]+" arm", g, &pa, pb, in)
				got := New(m, n)
				if err := GemmIm2Col(got, &pa, pb, in, g.kh, g.kw, g.stride, g.pad); err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, fmt.Sprintf("%s arm, %v M %d against the spec", gemmArmNames[arm], g, m), got.Data, spec.Data)
			}
		})
	})
}

// BenchmarkGemmIm2Col times the conv GEMM on the eight convolution shapes of
// the three models at batch 8 (serve's MaxBatch), on every GEMM arm: /tiled
// is GemmIm2Col, /whole the two passes it replaced, the reference
// PackIm2Col's whole panel matrix and then GemmPacked over it.
func BenchmarkGemmIm2Col(b *testing.B) {
	for _, s := range []struct {
		name string
		m    int
		g    im2colCase
	}{
		{"lenet-conv1", 6, im2colCase{8, 3, 24, 24, 5, 5, 1, 0}},
		{"lenet-conv2", 16, im2colCase{8, 6, 10, 10, 5, 5, 1, 0}},
		{"alexnet-conv1", 16, im2colCase{8, 3, 24, 24, 3, 3, 1, 1}},
		{"alexnet-conv2", 32, im2colCase{8, 16, 12, 12, 3, 3, 1, 1}},
		{"alexnet-conv3", 32, im2colCase{8, 32, 6, 6, 3, 3, 1, 1}},
		{"resnet-res1-conv1", 16, im2colCase{8, 16, 12, 12, 3, 3, 1, 1}},
		{"resnet-res2-conv1", 32, im2colCase{8, 16, 6, 6, 3, 3, 1, 1}},
		{"resnet-res2-proj", 32, im2colCase{8, 16, 6, 6, 1, 1, 1, 0}},
	} {
		g := s.g
		r := xrand.New(5)
		in := New(g.b, g.c, g.h, g.w)
		in.RandomizeUniform(r, -1, 1)
		k := g.c * g.kh * g.kw
		var pa PackedA
		if err := pa.Pack(randomMat(r, s.m, k)); err != nil {
			b.Fatal(err)
		}
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		c := New(s.m, g.b*oh*ow)
		flops := 2 * float64(s.m*k*g.b*oh*ow)
		forEachGemmArm(func(arm int) {
			for _, tiled := range []bool{true, false} {
				name := s.name + "/" + gemmArmNames[arm] + map[bool]string{true: "/tiled", false: "/whole"}[tiled]
				b.Run(name, func(b *testing.B) {
					var pb PackedB
					for i := 0; i < b.N; i++ {
						var err error
						if tiled {
							err = GemmIm2Col(c, &pa, &pb, in, g.kh, g.kw, g.stride, g.pad)
						} else if err = pb.PackIm2Col(in, g.kh, g.kw, g.stride, g.pad); err == nil {
							err = GemmPacked(c, &pa, &pb)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		})
	}
}
