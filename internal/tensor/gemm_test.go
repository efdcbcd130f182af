package tensor

import (
	"math"
	"testing"

	"mvml/internal/xrand"
)

// bitsEqual compares two float32 slices bit for bit, so NaN payloads and
// signed zeros count.
func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func randomMat(r *xrand.Rand, m, n int) *Tensor {
	t := New(m, n)
	t.RandomizeUniform(r, -2, 2)
	return t
}

// TestMatMulNaNInfPropagation is the regression for the removed zero-skip
// shortcut: a fault-injected Inf weight multiplied by an im2col padding zero
// must poison the output with NaN instead of being silently dropped.
func TestMatMulNaNInfPropagation(t *testing.T) {
	inf := float32(math.Inf(1))
	a, _ := FromSlice([]float32{0, 1}, 1, 2)   // leading zero meets Inf
	b, _ := FromSlice([]float32{inf, 2}, 2, 1) // 0·Inf + 1·2
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(c.Data[0])) {
		t.Fatalf("MatMul suppressed 0*Inf: got %v, want NaN", c.Data[0])
	}

	at, _ := FromSlice([]float32{0, 1}, 2, 1) // transpose of a
	ct, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(ct.Data[0])) {
		t.Fatalf("MatMulTransA suppressed 0*Inf: got %v, want NaN", ct.Data[0])
	}

}

// TestIm2ColBatchMatchesPerSample: column block b of the batched unroll must
// equal Im2Col of sample b exactly, even when the output buffer is dirty
// (padding zeros are written, not assumed).
func TestIm2ColBatchMatchesPerSample(t *testing.T) {
	r := xrand.New(5)
	const bsz, c, h, w = 3, 2, 7, 7
	in := New(bsz, c, h, w)
	in.RandomizeUniform(r, -1, 1)
	for _, cfg := range []struct{ kh, kw, stride, pad int }{
		{3, 3, 1, 1}, {3, 3, 2, 1}, {5, 5, 1, 0}, {1, 1, 1, 0},
	} {
		oh, ow := Conv2DShape(h, w, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
		out := New(c*cfg.kh*cfg.kw, bsz*oh*ow)
		out.Fill(99) // dirty buffer
		if err := Im2ColBatch(in, cfg.kh, cfg.kw, cfg.stride, cfg.pad, out); err != nil {
			t.Fatal(err)
		}
		stride := c * h * w
		for b := 0; b < bsz; b++ {
			sample := &Tensor{Shape: []int{c, h, w}, Data: in.Data[b*stride : (b+1)*stride]}
			want, err := Im2Col(sample, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < want.Shape[0]; row++ {
				got := out.Data[row*bsz*oh*ow+b*oh*ow : row*bsz*oh*ow+(b+1)*oh*ow]
				bitsEqual(t, "Im2ColBatch", got, want.Data[row*oh*ow:(row+1)*oh*ow])
			}
		}
	}
}

func TestIm2ColBatchErrors(t *testing.T) {
	if err := Im2ColBatch(New(2, 3, 4), 3, 3, 1, 0, New(1, 1)); err == nil {
		t.Fatal("expected rank error")
	}
	if err := Im2ColBatch(New(1, 1, 2, 2), 5, 5, 1, 0, New(1, 1)); err == nil {
		t.Fatal("expected empty-output error")
	}
	if err := Im2ColBatch(New(1, 1, 4, 4), 3, 3, 1, 0, New(9, 5)); err == nil {
		t.Fatal("expected output-shape error")
	}
}

// TestReshapeRejectsNonPositiveDims: two negative dimensions whose product
// matches the element count must not pass the count-only check.
func TestReshapeRejectsNonPositiveDims(t *testing.T) {
	a := New(2, 3)
	if _, err := a.Reshape(-2, -3); err == nil {
		t.Fatal("Reshape(-2, -3) accepted negative dimensions")
	}
	if _, err := a.Reshape(6, 0); err == nil {
		t.Fatal("Reshape(6, 0) accepted a zero dimension")
	}
	if _, err := a.Reshape(6); err != nil {
		t.Fatalf("valid reshape rejected: %v", err)
	}
}
