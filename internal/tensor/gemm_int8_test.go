package tensor

import (
	"math"
	"testing"

	"mvml/internal/xrand"
)

// int8Naive is the obviously-correct reference: quantize both operands
// elementwise, multiply in int32 with plain triple loops.
func int8Naive(a, b *Tensor, invA, invB float32) []int32 {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	qa := make([]int32, m*k)
	for i, v := range a.Data {
		qa[i] = int32(QuantizeInt8(v, invA))
	}
	qb := make([]int32, k*n)
	for i, v := range b.Data {
		qb[i] = int32(QuantizeInt8(v, invB))
	}
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum int32
			for kk := 0; kk < k; kk++ {
				sum += qa[i*k+kk] * qb[kk*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

func int32Equal(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestGemmInt8MatchesNaive: the packed kernel (asm or portable) must equal
// the naive quantize-then-multiply reference exactly, across ragged shapes
// including odd K (zero-padded final k-pair).
func TestGemmInt8MatchesNaive(t *testing.T) {
	r := xrand.New(31)
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 4}, {4, 7, 8}, {5, 2, 9}, {16, 288, 37},
		{32, 289, 513}, {7, 1, 258}, {2, 17, 1030},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randomMat(r, m, k), randomMat(r, k, n)
		sa := Int8ScaleFor(MaxAbs(a.Data))
		sb := Int8ScaleFor(MaxAbs(b.Data))
		want := int8Naive(a, b, sa.Inv, sb.Inv)
		var pa PackedAInt8
		var pb PackedBInt8
		if err := pa.Pack(a, sa.Inv); err != nil {
			t.Fatal(err)
		}
		if err := pb.Pack(b, sb.Inv); err != nil {
			t.Fatal(err)
		}
		got := make([]int32, m*n)
		for i := range got {
			got[i] = -7 // dirty output
		}
		if err := GemmInt8Packed(got, &pa, &pb); err != nil {
			t.Fatal(err)
		}
		int32Equal(t, "GemmInt8Packed", got, want)
	}
}

// TestGemmInt8TransposedMatchesNaive: dense-layer weight packing (PackTransposed).
func TestGemmInt8TransposedMatchesNaive(t *testing.T) {
	r := xrand.New(32)
	m, k, n := 8, 87, 43
	x, w := randomMat(r, m, k), randomMat(r, n, k)
	bt := New(k, n) // materialised transpose for the reference
	for i := 0; i < n; i++ {
		for kk := 0; kk < k; kk++ {
			bt.Data[kk*n+i] = w.Data[i*k+kk]
		}
	}
	sx := Int8ScaleFor(MaxAbs(x.Data))
	sw := Int8ScaleFor(MaxAbs(w.Data))
	want := int8Naive(x, bt, sx.Inv, sw.Inv)
	var pa PackedAInt8
	var pb PackedBInt8
	if err := pa.Pack(x, sx.Inv); err != nil {
		t.Fatal(err)
	}
	if err := pb.PackTransposed(w, sw.Inv); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, m*n)
	if err := GemmInt8Packed(got, &pa, &pb); err != nil {
		t.Fatal(err)
	}
	int32Equal(t, "GemmInt8Packed/PackTransposed", got, want)
}

// TestGemmInt8MicroAsmMatchesGo: the SIMD kernel must equal its executable
// spec exactly on full tiles.
func TestGemmInt8MicroAsmMatchesGo(t *testing.T) {
	if !haveGemmAsm {
		t.Skip("no assembly kernel on this platform")
	}
	r := xrand.New(34)
	for _, kp := range []int{1, 2, 7, 144} {
		ap := make([]int16, kp*2*gemmMR)
		bp := make([]int16, kp*2*gemmNR)
		for i := range ap {
			ap[i] = int16(r.Intn(255)) - 127
		}
		for i := range bp {
			bp[i] = int16(r.Intn(255)) - 127
		}
		want := make([]int32, gemmMR*gemmNR)
		got := make([]int32, gemmMR*gemmNR)
		gemmInt8MicroGo(want, gemmNR, 0, 0, gemmMR, gemmNR, kp, ap, bp)
		gemmInt8MicroAsm(&got[0], &ap[0], &bp[0], gemmNR, kp)
		int32Equal(t, "gemmInt8MicroAsm", got, want)
	}
}

func TestQuantizeInt8Properties(t *testing.T) {
	s := Int8ScaleFor(2.54)
	if q := QuantizeInt8(2.54, s.Inv); q != 127 {
		t.Fatalf("maxabs quantizes to %d, want 127", q)
	}
	if q := QuantizeInt8(-2.54, s.Inv); q != -127 {
		t.Fatalf("-maxabs quantizes to %d, want -127", q)
	}
	if q := QuantizeInt8(0, s.Inv); q != 0 {
		t.Fatalf("zero quantizes to %d, want 0", q)
	}
	// NaN rides the MINPS-style upper clamp — pinned so the portable and
	// SIMD packers agree even on garbage inputs.
	if q := QuantizeInt8(float32(math.NaN()), s.Inv); q != 127 {
		t.Fatalf("NaN quantizes to %d, want 127", q)
	}
	if q := QuantizeInt8(0.5, 1); q != 0 {
		t.Fatalf("0.5 quantizes to %d, want 0 (half to even)", q)
	}
	if q := QuantizeInt8(1.5, 1); q != 2 {
		t.Fatalf("1.5 quantizes to %d, want 2 (half to even)", q)
	}
	if q := QuantizeInt8(-2.5, 1); q != -2 {
		t.Fatalf("-2.5 quantizes to %d, want -2 (half to even)", q)
	}
	if q := QuantizeInt8(float32(math.Inf(1)), s.Inv); q != 127 {
		t.Fatalf("+Inf quantizes to %d, want 127", q)
	}
	if q := QuantizeInt8(float32(math.Inf(-1)), s.Inv); q != -127 {
		t.Fatalf("-Inf quantizes to %d, want -127", q)
	}
	zs := Int8ScaleFor(0)
	if zs.Scale != 1 || zs.Inv != 1 {
		t.Fatalf("zero-maxabs scale = %+v, want identity", zs)
	}
}

// TestPackedBInt8MatchesScalarSpec: every slot of the packed layout must
// hold exactly QuantizeInt8 of the corresponding source element (or 0 in a
// padded lane) — this pins the SIMD packer to the scalar spec, including on
// specials riding the clamp pipeline.
func TestPackedBInt8MatchesScalarSpec(t *testing.T) {
	r := xrand.New(35)
	for _, dims := range [][2]int{{7, 29}, {288, 96}, {17, 8}, {5, 1030}} {
		k, n := dims[0], dims[1]
		b := randomMat(r, k, n)
		b.Data[r.Intn(k*n)] = float32(math.NaN())
		b.Data[r.Intn(k*n)] = float32(math.Inf(1))
		b.Data[r.Intn(k*n)] = float32(math.Inf(-1))
		s := Int8ScaleFor(3)
		var pb PackedBInt8
		if err := pb.Pack(b, s.Inv); err != nil {
			t.Fatal(err)
		}
		kp := kpairs(k)
		stride := kp * 2 * gemmNR
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				jp, c := j/gemmNR, j%gemmNR
				slot := pb.data[jp*stride+(kk/2)*gemmNR*2+2*c+kk%2]
				want := int16(QuantizeInt8(b.Data[kk*n+j], s.Inv))
				if slot != want {
					t.Fatalf("k=%d n=%d slot (%d,%d) = %d, want %d (v=%v)",
						k, n, kk, j, slot, want, b.Data[kk*n+j])
				}
			}
		}
	}
}

// BenchmarkGemmInt8AlexConv3 mirrors BenchmarkGemmPackedAlexConv3: quantized
// activation packing per call (as the arena does) + exact int32 GEMM.
func BenchmarkGemmInt8AlexConv3(b *testing.B) {
	r := xrand.New(9)
	m, k, n := 32, 288, 4608
	x, y := randomMat(r, m, k), randomMat(r, k, n)
	sx := Int8ScaleFor(MaxAbs(x.Data))
	sy := Int8ScaleFor(MaxAbs(y.Data))
	var pa PackedAInt8
	var pb PackedBInt8
	if err := pa.Pack(x, sx.Inv); err != nil { // weights: packed once, cached
		b.Fatal(err)
	}
	c := make([]int32, m*n)
	out := New(m, n)
	scale := sx.Scale * sy.Scale
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pb.Pack(y, sy.Inv); err != nil { // activations: per call
			b.Fatal(err)
		}
		if err := GemmInt8Packed(c, &pa, &pb); err != nil {
			b.Fatal(err)
		}
		for j, v := range c {
			out.Data[j] = float32(v) * scale
		}
	}
}

// FuzzInt8QuantRoundTrip: quantization must be monotone (v1 <= v2 implies
// q1 <= q2), clamp to ±127, and round-trip within half a step of the
// original value inside the calibrated range.
func FuzzInt8QuantRoundTrip(f *testing.F) {
	f.Add(float32(1.5), float32(-0.3), float32(2.0))
	f.Add(float32(-2.0), float32(2.0), float32(0.5))
	f.Add(float32(0), float32(0), float32(0))
	f.Fuzz(func(t *testing.T, v1, v2, maxAbs float32) {
		if v1 != v1 || v2 != v2 || maxAbs != maxAbs {
			return // NaN inputs have their own pinned behavior
		}
		if math.IsInf(float64(maxAbs), 0) {
			return
		}
		if maxAbs < 0 {
			maxAbs = -maxAbs
		}
		s := Int8ScaleFor(maxAbs)
		q1, q2 := QuantizeInt8(v1, s.Inv), QuantizeInt8(v2, s.Inv)
		if q1 > 127 || q1 < -127 || q2 > 127 || q2 < -127 {
			t.Fatalf("clamp violated: %d %d", q1, q2)
		}
		if v1 <= v2 && q1 > q2 {
			t.Fatalf("monotonicity violated: q(%v)=%d > q(%v)=%d", v1, q1, v2, q2)
		}
		// Round-trip error bound inside the calibrated range.
		if maxAbs > 0 && v1 >= -maxAbs && v1 <= maxAbs && !math.IsInf(float64(v1), 0) {
			back := float64(q1) * float64(s.Scale)
			step := float64(s.Scale)
			if diff := math.Abs(back - float64(v1)); diff > step*0.51+1e-6 {
				t.Fatalf("round-trip error %v exceeds half step %v (v=%v q=%d scale=%v)",
					diff, step/2, v1, q1, s.Scale)
			}
		}
	})
}
