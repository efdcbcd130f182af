// Package tensor implements the minimal dense float32 tensor machinery the
// neural-network substrate needs: shape bookkeeping, element-wise kernels,
// matrix multiplication, and the im2col transform used by the convolution
// layers. The focus is correctness and determinism on a single CPU, not peak
// throughput.
package tensor

import (
	"fmt"
	"math"

	"mvml/internal/xrand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero tensor with the given shape. It panics on non-positive
// dimensions, which are always programmer errors in this codebase.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is NOT
// copied. It returns an error if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dimension in shape %v", shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, got %d", shape, n, len(data))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data.
// It returns an error if the element counts differ or any dimension is
// non-positive (two negative dimensions can otherwise sneak past a
// count-only check and panic downstream).
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dimension in shape %v", shape)
		}
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v to %v", t.Shape, shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandomizeUniform fills the tensor with uniform values in [lo, hi).
func (t *Tensor) RandomizeUniform(r *xrand.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + span*r.Float32()
	}
}

// RandomizeNormal fills the tensor with N(mean, stddev) values, the
// initialisation primitive behind He/Xavier init in the nn package.
func (t *Tensor) RandomizeNormal(r *xrand.Rand, mean, stddev float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.Normal(mean, stddev))
	}
}

// AddInPlace adds other element-wise into t. It returns an error on length
// mismatch (shapes may differ as long as the element counts agree, which the
// residual layer exploits).
func (t *Tensor) AddInPlace(other *Tensor) error {
	if len(t.Data) != len(other.Data) {
		return fmt.Errorf("tensor: add length mismatch %d vs %d", len(t.Data), len(other.Data))
	}
	if len(t.Data) > 0 {
		addRows(t.Data, other.Data, len(t.Data), 1, 0)
	}
	return nil
}

// addRows adds the rows·n floats of src, row by row, into rows runs of n
// floats ldd apart in dst, each as addTermFirst: one IEEE single add, no FMA,
// so the SSE2 kernel and the Go loop agree bit for bit. n and rows must be
// >= 1.
func addRows(dst, src []float32, n, rows, ldd int) {
	_, _ = dst[(rows-1)*ldd+n-1], src[rows*n-1] // the bounds the kernel relies on
	if haveGemmAsm {
		addRowsAsm(&dst[0], &src[0], n, rows, ldd)
		return
	}
	for r := 0; r < rows; r++ {
		d := dst[r*ldd : r*ldd+n]
		for i, v := range src[r*n : (r+1)*n] {
			d[i] = addTermFirst(v, d[i])
		}
	}
}

// addTermFirst is v + acc, with v's NaN (quieted) when both are NaN —
// ADDPS's rule with the term v in the destination. IEEE 754 leaves that
// choice open and Go compiles `acc += v` with either operand first, so the
// Go loops that must match addRowsAsm bit for bit fix it here.
func addTermFirst(v, acc float32) float32 {
	if v != v {
		return math.Float32frombits(math.Float32bits(v) | 0x00400000)
	}
	return v + acc
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n). It returns an
// error on rank or inner-dimension mismatch.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions %d and %d differ", k, k2)
	}
	c := New(m, n)
	// ikj loop order: streams through B and C rows for cache friendliness.
	// Every product is accumulated — a zero-skip shortcut here would suppress
	// IEEE 0·Inf = NaN and hide fault-injected corruption from the voter.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n), used by dense
// backprop without materialising the transpose.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMulTransA requires 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMulTransA leading dimensions %d and %d differ", k, k2)
	}
	c := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i, av := range arow {
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k).
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMulTransB requires 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMulTransB trailing dimensions %d and %d differ", k, k2)
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var sum float32
			for kk, av := range arow {
				sum += av * brow[kk]
			}
			crow[j] = sum
		}
	}
	return c, nil
}

// Conv2DShape returns the output height and width of a convolution over an
// input of the given spatial size with the given kernel, stride and padding.
// A dimension whose kernel is larger than the padded input is 0.
func Conv2DShape(h, w, kh, kw, stride, pad int) (int, int) {
	return convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
}

// convOut is the number of kernel positions along one dimension: the floor of
// (n+2·pad−k)/stride, plus one. Go's / truncates toward zero, which would
// count one position for a kernel up to stride−1 wider than the padded input.
func convOut(n, k, stride, pad int) int {
	if n+2*pad < k {
		return 0
	}
	return (n+2*pad-k)/stride + 1
}

// Im2Col unrolls an input tensor of shape (C, H, W) into a matrix of shape
// (C*kh*kw, oh*ow) so convolution becomes a single MatMul. Out-of-bounds
// (padding) positions contribute zeros.
func Im2Col(in *Tensor, kh, kw, stride, pad int) (*Tensor, error) {
	if len(in.Shape) != 3 {
		return nil, fmt.Errorf("tensor: Im2Col requires (C,H,W) input, got %v", in.Shape)
	}
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: Im2Col output is empty for input %v kernel %dx%d stride %d pad %d",
			in.Shape, kh, kw, stride, pad)
	}
	out := New(c*kh*kw, oh*ow)
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				dst := out.Data[row*oh*ow : (row+1)*oh*ow]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						di += ow
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix >= 0 && ix < w {
							dst[di] = in.Data[rowBase+ix]
						}
						di++
					}
				}
			}
		}
	}
	return out, nil
}

// Col2Im scatters a (C*kh*kw, oh*ow) column matrix back into a (C, H, W)
// tensor, accumulating overlapping contributions — the adjoint of Im2Col,
// used for convolution input gradients. It is the reference: each pixel
// receives its terms in ascending (ky, kx) order from +0, one addTermFirst
// each.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) (*Tensor, error) {
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		return nil, fmt.Errorf("tensor: Col2Im got shape %v, want (%d, %d)", cols.Shape, c*kh*kw, oh*ow)
	}
	out := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := cols.Data[((ch*kh+ky)*kw+kx)*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						if ix := ox*stride + kx - pad; ix >= 0 && ix < w {
							o := &out.Data[(ch*h+iy)*w+ix]
							*o = addTermFirst(src[oy*ow+ox], *o)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Col2ImAdd is Col2Im written into the caller's (c·h·w) plane dst, which it
// overwrites, bit for bit. The terms accumulate from +0 in the zero-padded
// (c, h+2·pad, w+2·pad) plane padded — the caller's scratch, unused at pad 0
// — where row kk = (ch, ky, kx) of cols lands at offset (ch, ky, kx) plus
// each output position's base, the transpose of GemmIm2Col's walk: no term
// needs a bounds test, so at stride 1 all of row kk is one addRows call, a
// vector row add per oy. The rows go in ascending kk, so each pixel still
// receives its terms in Col2Im's order. Then the interior is copied out.
func Col2ImAdd(dst, padded []float32, cols *Tensor, c, h, w, kh, kw, stride, pad int) error {
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow || oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: Col2ImAdd got shape %v, want (%d, %d)", cols.Shape, c*kh*kw, oh*ow)
	}
	if len(dst) != c*h*w {
		return fmt.Errorf("tensor: Col2ImAdd output has %d elements, want %d", len(dst), c*h*w)
	}
	hp, wp := h+2*pad, w+2*pad
	acc := dst
	if pad > 0 {
		if len(padded) != c*hp*wp {
			return fmt.Errorf("tensor: Col2ImAdd padded scratch has %d elements, want %d", len(padded), c*hp*wp)
		}
		acc = padded
	}
	// The plane is cleared and then summed into while cols is still read.
	if overlaps(acc, cols.Data) || overlaps(dst, cols.Data) || (pad > 0 && overlaps(dst, padded)) {
		return fmt.Errorf("tensor: Col2ImAdd output aliases its input")
	}
	clear(acc)
	spatial := oh * ow
	for kk := 0; kk < c*kh*kw; kk++ {
		kx, ky, ch := kk%kw, kk/kw%kh, kk/(kw*kh)
		src := cols.Data[kk*spatial : (kk+1)*spatial]
		first := (ch*hp+ky)*wp + kx
		if stride == 1 {
			addRows(acc[first:], src, ow, oh, wp)
			continue
		}
		for oy := 0; oy < oh; oy++ {
			d := acc[first+oy*stride*wp:]
			for i, v := range src[oy*ow : (oy+1)*ow] {
				d[i*stride] = addTermFirst(v, d[i*stride])
			}
		}
	}
	if pad > 0 {
		for pl := 0; pl < c; pl++ {
			for y := 0; y < h; y++ {
				copy(dst[(pl*h+y)*w:(pl*h+y+1)*w], padded[(pl*hp+y+pad)*wp+pad:])
			}
		}
	}
	return nil
}
