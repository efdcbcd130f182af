package tensor

import (
	"strings"
	"testing"
)

// The packed kernel overwrites C while it reads the A and B panels, so an
// output aliasing an operand silently corrupts the multiply. These regression
// tests pin GemmPacked's overlap rejection.

// packedInto packs a 4×4 ramp into panels whose storage is the given window
// (arena-style suballocation: Pack reuses a buffer with enough capacity).
func packedInto(t *testing.T, bufA, bufB []float32) (*PackedA, *PackedB, *Tensor, *Tensor) {
	t.Helper()
	a, b := New(4, 4), New(4, 4)
	for i := 0; i < 16; i++ {
		a.Data[i] = float32(i%5) - 2
		b.Data[i] = float32(i%3) - 1
	}
	pa, pb := &PackedA{data: bufA}, &PackedB{data: bufB}
	if err := pa.Pack(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Pack(b); err != nil {
		t.Fatal(err)
	}
	return pa, pb, a, b
}

// TestGemmRejectsAliasedOutput: an output overlapping either packed operand
// by a single element (the classic off-by-one suballocation bug) is refused.
func TestGemmRejectsAliasedOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int // start of the 16-element output window
	}{
		{"left", 15},       // last element of the A panels at [0, 16)
		{"right", 48 + 31}, // last element of the B panel at [48, 80)
	} {
		base := make([]float32, 128)
		pa, pb, _, _ := packedInto(t, base[0:16:16], base[48:80:80])
		c := &Tensor{Shape: []int{4, 4}, Data: base[tc.off : tc.off+16]}
		err := GemmPacked(c, pa, pb)
		if err == nil {
			t.Fatalf("%s: accepted an output aliasing an operand", tc.name)
		}
		if !strings.Contains(err.Error(), "aliases") {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
	}
}

// TestGemmFullAliasRejected: an output that IS the left operand's panel
// buffer is the most direct in-place misuse and must also be rejected.
func TestGemmFullAliasRejected(t *testing.T) {
	pa, pb, _, _ := packedInto(t, nil, nil)
	c := &Tensor{Shape: []int{4, 4}, Data: pa.data}
	if err := GemmPacked(c, pa, pb); err == nil {
		t.Fatal("GemmPacked accepted c sharing the packed A buffer")
	}
}

// TestGemmDisjointSubslicesAllowed: arena-style suballocation hands out
// disjoint windows of one backing array — that is not aliasing and must keep
// working bit for bit.
func TestGemmDisjointSubslicesAllowed(t *testing.T) {
	base := make([]float32, 16+32+16)
	pa, pb, a, b := packedInto(t, base[0:16:16], base[16:48:48])
	c := &Tensor{Shape: []int{4, 4}, Data: base[48:64]}
	if err := GemmPacked(c, pa, pb); err != nil {
		t.Fatalf("GemmPacked rejected disjoint sub-slices: %v", err)
	}
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "disjoint sub-slices", c.Data, want.Data)
}

func TestIm2ColBatchRejectsAliasedOutput(t *testing.T) {
	oh, ow := Conv2DShape(4, 4, 3, 3, 1, 1)
	base := make([]float32, 64+2*3*3*2*oh*ow)
	in := &Tensor{Shape: []int{2, 2, 4, 4}, Data: base[:64]}
	out := &Tensor{Shape: []int{2 * 3 * 3, 2 * oh * ow}, Data: base[32 : 32+2*3*3*2*oh*ow]}
	if err := Im2ColBatch(in, 3, 3, 1, 1, out); err == nil {
		t.Fatal("Im2ColBatch accepted an output aliasing the input")
	}
}

// TestPackIm2ColRejectsAliasedInput: the fused packers rewrite their panels,
// padded image and row scratch while still gathering from the input, so an
// input sharing any of them must be refused like Im2ColBatch refuses an
// aliased output.
func TestPackIm2ColRejectsAliasedInput(t *testing.T) {
	fresh := New(2, 2, 4, 4)
	var pb PackedB
	var qb PackedBInt8
	if err := pb.PackIm2Col(fresh, 3, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := qb.PackIm2Col(fresh, 3, 3, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string][]float32{"panels": pb.data, "padded image": pb.padded} {
		in := &Tensor{Shape: []int{1, 1, 4, 4}, Data: buf[:16]}
		if err := pb.PackIm2Col(in, 3, 3, 1, 1); err == nil {
			t.Fatalf("PackedB.PackIm2Col accepted an input aliasing its %s", name)
		}
	}
	in := &Tensor{Shape: []int{1, 1, 4, 4}, Data: qb.rows[:16]}
	if err := qb.PackIm2Col(in, 3, 3, 1, 1, 1); err == nil {
		t.Fatal("PackedBInt8.PackIm2Col accepted an input aliasing its row scratch")
	}
}

func TestGemmPackedRejectsAliasedOutput(t *testing.T) {
	a := New(4, 4)
	b := New(4, 8)
	var pa PackedA
	var pb PackedB
	if err := pa.Pack(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Pack(b); err != nil {
		t.Fatal(err)
	}
	c := &Tensor{Shape: []int{4, 8}, Data: pb.data[:32]}
	if err := GemmPacked(c, &pa, &pb); err == nil {
		t.Fatal("GemmPacked accepted an output aliasing a packed panel")
	}
}
