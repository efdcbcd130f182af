package tensor

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"mvml/internal/xrand"
)

func isNaN32(v float32) bool { return v != v }

var gemmArmNames = [...]string{armGo: "go", armSSE2: "sse2", armAVX2: "avx2"}

// forEachGemmArm runs f once per micro-kernel arm this host can execute — the
// Go spec, then SSE2 and AVX2 where present — with GemmPacked forced onto it,
// and restores the host's arm afterwards.
func forEachGemmArm(f func(arm int)) {
	host := gemmArm
	defer func() { gemmArm = host }()
	for arm := armGo; arm <= host; arm++ {
		gemmArm = arm
		f(arm)
	}
}

// poisonPadding overwrites the zero padding of the last row and column panels
// with specials. Every kernel computes those lanes but must drop them, so no
// Inf or NaN placed there may reach the output.
func poisonPadding(pa *PackedA, pb *PackedB) {
	k := pa.K
	if live := pa.M % gemmMR; live != 0 {
		last := pa.data[pa.M/gemmMR*k*gemmMR:]
		for kk := 0; kk < k; kk++ {
			for r := live; r < gemmMR; r++ {
				last[kk*gemmMR+r] = float32(math.Inf(1))
			}
		}
	}
	if live := pb.N % gemmNR; live != 0 {
		last := pb.data[pb.N/gemmNR*k*gemmNR:]
		for kk := 0; kk < k; kk++ {
			for c := live; c < gemmNR; c++ {
				last[kk*gemmNR+c] = float32(math.NaN())
			}
		}
	}
}

// TestGemmPackedBitwiseMatchesMatMul: every micro-kernel arm must reproduce
// MatMul bit for bit across ragged shapes — m, n deliberately not multiples
// of the register block, n not a multiple of the column tile, and every
// pairing of a row edge with a column edge, odd panel and panel pair — while
// the padded lanes carry Inf and NaN.
func TestGemmPackedBitwiseMatchesMatMul(t *testing.T) {
	r := xrand.New(11)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 4}, {4, 7, 4}, {5, 3, 9}, {16, 300, 7},
		{2, 17, 1030}, {32, 288, 513}, {65, 64, 33}, {7, 1, 258},
	}
	for _, m := range []int{1, 3, 4, 5, 6} {
		for _, n := range []int{8, 15, 16, 17, 24, 33} {
			shapes = append(shapes, [3]int{m, 1, n})
		}
	}
	for _, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randomMat(r, m, k), randomMat(r, k, n)
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var pa PackedA
		var pb PackedB
		if err := pa.Pack(a); err != nil {
			t.Fatal(err)
		}
		if err := pb.Pack(b); err != nil {
			t.Fatal(err)
		}
		poisonPadding(&pa, &pb)
		forEachGemmArm(func(arm int) {
			c := New(m, n)
			c.Fill(42) // dirty buffer: packed kernel must overwrite every element
			if err := GemmPacked(c, &pa, &pb); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("GemmPacked %s %v", gemmArmNames[arm], dims), c.Data, want.Data)
		})
	}
}

// TestAVX2ArmTaken: a host whose kernel reports avx2 must run the AVX2 arm, so
// a broken CPUID/XGETBV check fails here instead of silently serving SSE2.
func TestAVX2ArmTaken(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" || !haveGemmAsm {
		t.Skip("needs linux/amd64 with the assembly kernels")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	avx2 := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				avx2 = avx2 || f == "avx2"
			}
			break
		}
	}
	if avx2 && gemmArm != armAVX2 {
		t.Fatalf("/proc/cpuinfo lists avx2 but GemmPacked runs the %s arm", gemmArmNames[gemmArm])
	}
	if !avx2 && gemmArm == armAVX2 {
		t.Fatal("GemmPacked runs the avx2 arm but /proc/cpuinfo does not list avx2")
	}
}

// TestGemmPackedTransposedMatchesMatMulTransB: PackTransposed packs the dense
// layer's (out, in) weight matrix as the GEMM right operand, so
// x·Wᵀ computed via GemmPacked must match MatMulTransB(x, w) bit for bit.
func TestGemmPackedTransposedMatchesMatMulTransB(t *testing.T) {
	r := xrand.New(12)
	for _, dims := range [][3]int{
		{1, 1, 1}, {5, 7, 3}, {8, 288, 43}, {33, 64, 10},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		x, w := randomMat(r, m, k), randomMat(r, n, k)
		want, err := MatMulTransB(x, w)
		if err != nil {
			t.Fatal(err)
		}
		var pa PackedA
		var pb PackedB
		if err := pa.Pack(x); err != nil {
			t.Fatal(err)
		}
		if err := pb.PackTransposed(w); err != nil {
			t.Fatal(err)
		}
		c := New(m, n)
		if err := GemmPacked(c, &pa, &pb); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "GemmPacked/PackTransposed", c.Data, want.Data)
	}
}

// TestGemmPackedNaNInfPropagation: special values must flow through the
// packed kernel exactly as through MatMul — in particular the zero padding of
// edge panels must never leak a 0·Inf = NaN into a live output lane.
func TestGemmPackedNaNInfPropagation(t *testing.T) {
	m, k, n := 5, 3, 6 // ragged: one padded row lane, two padded column lanes
	a, b := New(m, k), New(k, n)
	// Nonzero fills: a 0·Inf inside a live lane would make an INDEFINITE NaN
	// whose payload could then meet the injected NaN's payload in one add —
	// and when two *distinct* NaN payloads collide, x86 keeps whichever sits
	// in the destination register, which is codegen- not semantics-defined.
	// Single-NaN chains (all real inference data) are bitwise deterministic.
	for i := range a.Data {
		a.Data[i] = float32(i%5)*0.5 - 1.25
	}
	for i := range b.Data {
		b.Data[i] = float32(i%7)*0.5 - 1.75
	}
	a.Data[k*m-1] = float32(math.Inf(1)) // Inf in the last packed row lane
	b.Data[n-1] = float32(math.NaN())    // NaN in the last packed column lane
	b.Data[n] = float32(math.Inf(-1))
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var pa PackedA
	var pb PackedB
	if err := pa.Pack(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Pack(b); err != nil {
		t.Fatal(err)
	}
	c := New(m, n)
	if err := GemmPacked(c, &pa, &pb); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "GemmPacked NaN/Inf", c.Data, want.Data)
}

// TestPackedReuseAcrossShapes: repacking smaller operands into the same
// PackedA/PackedB and writing into a dirty output must not resurrect stale
// panel data from the earlier, larger packing.
func TestPackedReuseAcrossShapes(t *testing.T) {
	r := xrand.New(14)
	var pa PackedA
	var pb PackedB
	c := New(64, 600)
	for _, dims := range [][3]int{
		{33, 80, 523}, {6, 80, 523}, {6, 9, 14}, {5, 9, 14}, {33, 80, 523},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randomMat(r, m, k), randomMat(r, k, n)
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := pa.Pack(a); err != nil {
			t.Fatal(err)
		}
		if err := pb.Pack(b); err != nil {
			t.Fatal(err)
		}
		c.Shape = []int{m, n}
		c.Data = c.Data[:m*n]
		if err := GemmPacked(c, &pa, &pb); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "GemmPacked reuse", c.Data, want.Data)
	}
}

// TestGemmMicroAsmMatchesGo: the assembly kernel must be bitwise identical
// to its executable spec, gemmMicroGo, on full tiles — including when padded
// dead lanes of the panels carry specials.
func TestGemmMicroAsmMatchesGo(t *testing.T) {
	if !haveGemmAsm {
		t.Skip("no assembly kernel on this platform")
	}
	r := xrand.New(16)
	for _, k := range []int{1, 2, 7, 96, 288} {
		ap := make([]float32, k*gemmMR)
		bp := make([]float32, k*gemmNR)
		for i := range ap {
			ap[i] = r.Float32()*4 - 2
		}
		for i := range bp {
			bp[i] = r.Float32()*4 - 2
		}
		ap[r.Intn(len(ap))] = float32(math.Inf(-1))
		want := make([]float32, gemmMR*gemmNR)
		got := make([]float32, gemmMR*gemmNR)
		gemmMicroGo(want, gemmNR, 0, 0, gemmMR, gemmNR, k, ap, bp)
		gemmMicroAsm(&got[0], &ap[0], &bp[0], gemmNR, k)
		bitsEqual(t, "gemmMicroAsm", got, want)
	}
}

func TestGemmPackedShapeErrors(t *testing.T) {
	r := xrand.New(15)
	a, b := randomMat(r, 4, 6), randomMat(r, 6, 8)
	var pa PackedA
	var pb PackedB
	c := New(4, 8)
	if err := GemmPacked(c, &pa, &pb); err == nil {
		t.Fatal("GemmPacked accepted unpacked operands")
	}
	if err := pa.Pack(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Pack(b); err != nil {
		t.Fatal(err)
	}
	if err := GemmPacked(New(4, 7), &pa, &pb); err == nil {
		t.Fatal("GemmPacked accepted mismatched output shape")
	}
	var pbBad PackedB
	if err := pbBad.Pack(randomMat(r, 5, 8)); err != nil {
		t.Fatal(err)
	}
	if err := GemmPacked(c, &pa, &pbBad); err == nil {
		t.Fatal("GemmPacked accepted mismatched inner dimensions")
	}
	if err := pa.Pack(New(2, 3, 4)); err == nil {
		t.Fatal("PackedA.Pack accepted a 3-D tensor")
	}
	if err := pb.Pack(New(2, 3, 4)); err == nil {
		t.Fatal("PackedB.Pack accepted a 3-D tensor")
	}
	if err := pb.PackTransposed(New(2, 3, 4)); err == nil {
		t.Fatal("PackedB.PackTransposed accepted a 3-D tensor")
	}
}

// FuzzGemmPackedBitwise: for fuzzer-chosen ragged shapes and a value stream
// that includes specials, packed GEMM must match MatMul bit for bit on every
// micro-kernel arm the host has.
func FuzzGemmPackedBitwise(f *testing.F) {
	f.Add(uint16(3), uint16(5), uint16(4), uint64(1))
	f.Add(uint16(4), uint16(4), uint16(4), uint64(2))
	f.Add(uint16(13), uint16(1), uint16(259), uint64(3))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint16, seed uint64) {
		m := int(mm%40) + 1
		k := int(kk%300) + 1
		n := int(nn%600) + 1
		r := xrand.New(seed)
		a, b := randomMat(r, m, k), randomMat(r, k, n)
		// Sprinkle specials so padding bugs that mix lanes surface as NaNs.
		if m*k > 2 {
			a.Data[r.Intn(m*k)] = float32(math.Inf(1))
		}
		if k*n > 2 {
			b.Data[r.Intn(k*n)] = float32(math.NaN())
		}
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var pa PackedA
		var pb PackedB
		if err := pa.Pack(a); err != nil {
			t.Fatal(err)
		}
		if err := pb.Pack(b); err != nil {
			t.Fatal(err)
		}
		c := New(m, n)
		forEachGemmArm(func(arm int) {
			c.Fill(7)
			if err := GemmPacked(c, &pa, &pb); err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				gb, wb := math.Float32bits(c.Data[i]), math.Float32bits(want.Data[i])
				if gb == wb {
					continue
				}
				// Two distinct NaN payloads colliding in one add resolve by
				// operand position (codegen-defined on x86), so NaN==NaN is
				// the strongest portable contract for fuzzer-built inputs;
				// all other values must match bit for bit.
				if isNaN32(c.Data[i]) && isNaN32(want.Data[i]) {
					continue
				}
				t.Fatalf("%s arm, element %d: got bits %#x want %#x", gemmArmNames[arm], i, gb, wb)
			}
		})
	})
}

// BenchmarkGemmPackedAlexConv3 times the alexnet conv3 multiply at batch=32:
// weights packed once (cached in the arena), activations repacked per call.
func BenchmarkGemmPackedAlexConv3(b *testing.B) {
	r := xrand.New(9)
	m, k, n := 32, 288, 4608
	x, y := randomMat(r, m, k), randomMat(r, k, n)
	c := New(m, n)
	var pa PackedA
	var pb PackedB
	if err := pa.Pack(x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pb.Pack(y); err != nil {
			b.Fatal(err)
		}
		if err := GemmPacked(c, &pa, &pb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGemmPackedTransposedAMatchesMatMulTransA: PackedA.PackTransposed packs
// aᵀ from a stored (K×M) matrix — the backward pass's Kᵀ·G and Gᵀ·X — so the
// product must match MatMulTransA(a, b) bit for bit, ragged row panels and a
// reused (previously larger) buffer included.
func TestGemmPackedTransposedAMatchesMatMulTransA(t *testing.T) {
	r := xrand.New(15)
	var pa PackedA
	var pb PackedB
	for _, dims := range [][3]int{
		{33, 80, 50}, {1, 1, 1}, {3, 5, 4}, {27, 16, 576}, {6, 9, 14}, {288, 32, 36},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randomMat(r, k, m), randomMat(r, k, n)
		want, err := MatMulTransA(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := pa.PackTransposed(a); err != nil {
			t.Fatal(err)
		}
		if err := pb.Pack(b); err != nil {
			t.Fatal(err)
		}
		c := New(m, n)
		c.Fill(42)
		if err := GemmPacked(c, &pa, &pb); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "GemmPacked/PackedA.PackTransposed", c.Data, want.Data)
	}
	if err := pa.PackTransposed(New(2, 3, 4)); err == nil {
		t.Fatal("PackedA.PackTransposed accepted a 3-D tensor")
	}
}
