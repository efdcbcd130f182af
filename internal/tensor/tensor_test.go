package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mvml/internal/xrand"
)

func TestNewShapeAndZero(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	a, err := FromSlice(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	if _, err := FromSlice(data, 2, 2); err == nil {
		t.Fatal("expected error for mismatched shape")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if a.At(2, 1) != 7.5 {
		t.Fatalf("At after Set = %v", a.At(2, 1))
	}
	if a.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 42
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data")
	}
}

func TestReshape(t *testing.T) {
	a := New(2, 6)
	a.Data[7] = 3
	b, err := a.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(1, 3) != 3 {
		t.Fatal("Reshape changed element order")
	}
	if _, err := a.Reshape(5, 5); err == nil {
		t.Fatal("expected error for incompatible reshape")
	}
	// Reshape is a view.
	b.Data[0] = 9
	if a.Data[0] != 9 {
		t.Fatal("Reshape should share data")
	}
}

func TestAddInPlace(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3}, 3)
	b, _ := FromSlice([]float32{10, 20, 30}, 3)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace got %v", a.Data)
	}
	short := New(2)
	if err := a.AddInPlace(short); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	c := New(6)
	if _, err := MatMul(a, c); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	r := xrand.New(1)
	a := New(4, 3)
	b := New(4, 5)
	a.RandomizeUniform(r, -1, 1)
	b.RandomizeUniform(r, -1, 1)

	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want, err := MatMul(at, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMulTransA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-5 {
			t.Fatalf("MatMulTransA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	r := xrand.New(2)
	a := New(3, 4)
	b := New(5, 4)
	a.RandomizeUniform(r, -1, 1)
	b.RandomizeUniform(r, -1, 1)

	bt := New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	want, err := MatMul(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMulTransB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-5 {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
}

func TestConv2DShape(t *testing.T) {
	cases := []struct {
		h, w, kh, kw, stride, pad, oh, ow int
	}{
		{32, 32, 3, 3, 1, 1, 32, 32},
		{32, 32, 3, 3, 2, 1, 16, 16},
		{28, 28, 5, 5, 1, 0, 24, 24},
		{8, 8, 2, 2, 2, 0, 4, 4},
	}
	for _, c := range cases {
		oh, ow := Conv2DShape(c.h, c.w, c.kh, c.kw, c.stride, c.pad)
		if oh != c.oh || ow != c.ow {
			t.Errorf("Conv2DShape(%+v) = %d,%d", c, oh, ow)
		}
	}
}

// convNaive is a direct convolution used as the reference implementation.
func convNaive(in *Tensor, kernel *Tensor, stride, pad int) *Tensor {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oc, kh, kw := kernel.Shape[0], kernel.Shape[2], kernel.Shape[3]
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*stride + ky - pad
							ix := ox*stride + kx - pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							sum += in.At(ch, iy, ix) * kernel.At(o, ch, ky, kx)
						}
					}
				}
				out.Set(sum, o, oy, ox)
			}
		}
	}
	return out
}

func TestIm2ColConvolutionMatchesNaive(t *testing.T) {
	r := xrand.New(3)
	in := New(2, 7, 7)
	in.RandomizeUniform(r, -1, 1)
	kernel := New(3, 2, 3, 3) // (outC, inC, kh, kw)
	kernel.RandomizeUniform(r, -1, 1)

	for _, cfg := range []struct{ stride, pad int }{{1, 0}, {1, 1}, {2, 1}} {
		want := convNaive(in, kernel, cfg.stride, cfg.pad)

		cols, err := Im2Col(in, 3, 3, cfg.stride, cfg.pad)
		if err != nil {
			t.Fatal(err)
		}
		kmat, err := kernel.Reshape(3, 2*3*3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMul(kmat, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
				t.Fatalf("im2col conv mismatch (stride=%d pad=%d) at %d: %v vs %v",
					cfg.stride, cfg.pad, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold for the pair to be valid
	// forward/backward operators.
	r := xrand.New(4)
	x := New(2, 6, 6)
	x.RandomizeUniform(r, -1, 1)
	const kh, kw, stride, pad = 3, 3, 2, 1

	cols, err := Im2Col(x, kh, kw, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	y := New(cols.Shape[0], cols.Shape[1])
	y.RandomizeUniform(r, -1, 1)

	var lhs float64
	for i := range cols.Data {
		lhs += float64(cols.Data[i]) * float64(y.Data[i])
	}

	back, err := Col2Im(y, 2, 6, 6, kh, kw, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2ImShapeError(t *testing.T) {
	bad := New(3, 3)
	if _, err := Col2Im(bad, 1, 6, 6, 3, 3, 1, 0); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestIm2ColErrors(t *testing.T) {
	if _, err := Im2Col(New(4, 4), 3, 3, 1, 0); err == nil {
		t.Fatal("expected rank error for 2-D input")
	}
	if _, err := Im2Col(New(1, 2, 2), 5, 5, 1, 0); err == nil {
		t.Fatal("expected empty-output error")
	}
}

func TestPropertyMatMulIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(5)
		a := New(n, n)
		a.RandomizeUniform(r, -2, 2)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		c, err := MatMul(a, id)
		if err != nil {
			return false
		}
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-c.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := xrand.New(1)
	a := New(64, 64)
	c := New(64, 64)
	a.RandomizeUniform(r, -1, 1)
	c.RandomizeUniform(r, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIm2Col32(b *testing.B) {
	r := xrand.New(1)
	in := New(3, 32, 32)
	in.RandomizeUniform(r, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Im2Col(in, 3, 3, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCol2ImAddMatchesElementwiseScatter: Col2ImAdd, which sums in a padded
// plane with whole-row adds, must overwrite a dirty destination and scratch
// with the result of Col2Im — the reference, a per-element bounds test adding
// onto zeros — bit for bit, specials in the columns included.
func TestCol2ImAddMatchesElementwiseScatter(t *testing.T) {
	r := xrand.New(5)
	// Two NaN payloads, and ±Inf whose sum is a third: many pixels sum two
	// different NaNs, and each must keep the one Col2Im keeps.
	specials := []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00002),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	type geom struct{ c, h, w, kh, kw, stride, pad int }
	cases := []geom{
		{2, 6, 6, 3, 3, 1, 1}, {3, 7, 5, 3, 3, 2, 1}, {1, 8, 8, 5, 5, 1, 0},
		{2, 5, 5, 1, 1, 1, 0}, {1, 4, 4, 3, 3, 1, 2}, {2, 9, 6, 3, 2, 3, 1}, {1, 2, 2, 3, 3, 1, 2},
		{2, 7, 9, 1, 1, 2, 0}, {1, 5, 3, 1, 1, 1, 3}, {3, 11, 13, 5, 3, 1, 1}, {2, 10, 10, 3, 3, 3, 3},
		{4, 24, 24, 3, 3, 1, 1}, {6, 10, 10, 5, 5, 1, 0}, {1, 3, 3, 3, 3, 2, 2},
	}
	for stride := 1; stride <= 3; stride++ {
		for pad := 0; pad <= 3; pad++ {
			cases = append(cases, geom{2, 7, 6, 3, 3, stride, pad}, geom{1, 5, 9, 2, 4, stride, pad})
		}
	}
	for _, g := range cases {
		oh, ow := Conv2DShape(g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		cols := New(g.c*g.kh*g.kw, oh*ow)
		cols.RandomizeUniform(r, -1, 1)
		for i := 0; i < cols.Len()/8+len(specials); i++ {
			cols.Data[r.Intn(cols.Len())] = specials[i%len(specials)]
		}
		want, err := Col2Im(cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		got := New(g.c, g.h, g.w)
		got.RandomizeUniform(r, -1, 1)
		padded := make([]float32, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		for i := range padded {
			padded[i] = 1e30 // dirty scratch
		}
		if g.pad == 0 {
			padded = nil
		}
		if err := Col2ImAdd(got.Data, padded, cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, fmt.Sprintf("%+v: Col2ImAdd against Col2Im", g), got.Data, want.Data)
		if err := Col2ImAdd(got.Data[1:], padded, cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad); err == nil {
			t.Fatalf("%+v: Col2ImAdd accepted a short destination", g)
		}
		if g.pad > 0 {
			if err := Col2ImAdd(got.Data, padded[1:], cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad); err == nil {
				t.Fatalf("%+v: Col2ImAdd accepted a short padded scratch", g)
			}
		}
	}
}
