// Batched im2col: the transform that lets a convolution layer process a whole
// (B, C, H, W) batch with a single packed GEMM (see gemm_packed.go). There is
// one unroll — im2colRow, which produces a single row of the column matrix —
// and three consumers: PackedB.PackIm2Col and PackedBInt8.PackIm2Col stream
// the rows straight into GEMM panels without ever materialising the matrix,
// and Im2ColBatch writes them out for callers that want the matrix itself.
package tensor

import "fmt"

// im2colGeom is the checked geometry of one batched unroll.
type im2colGeom struct {
	b, c, h, w          int
	kh, kw, stride, pad int
	oh, ow              int
}

// rows and cols are the dimensions of the (C·kh·kw, B·oh·ow) column matrix.
func (g *im2colGeom) rows() int { return g.c * g.kh * g.kw }
func (g *im2colGeom) cols() int { return g.b * g.oh * g.ow }

// newIm2ColGeom validates a batched unroll on behalf of op.
func newIm2ColGeom(op string, in *Tensor, kh, kw, stride, pad int) (im2colGeom, error) {
	if len(in.Shape) != 4 {
		return im2colGeom{}, fmt.Errorf("tensor: %s requires (B,C,H,W) input, got %v", op, in.Shape)
	}
	g := im2colGeom{
		b: in.Shape[0], c: in.Shape[1], h: in.Shape[2], w: in.Shape[3],
		kh: kh, kw: kw, stride: stride, pad: pad,
	}
	g.oh, g.ow = Conv2DShape(g.h, g.w, kh, kw, stride, pad)
	if g.oh <= 0 || g.ow <= 0 {
		return im2colGeom{}, fmt.Errorf("tensor: %s output is empty for input %v kernel %dx%d stride %d pad %d",
			op, in.Shape, kh, kw, stride, pad)
	}
	return g, nil
}

// inBounds returns the half-open range of output positions o in [0, n) whose
// source coordinate o·stride+off lands inside [0, size).
func inBounds(n, size, stride, off int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := size - 1 - off; last >= 0 {
		hi = last/stride + 1
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// im2colRow writes row kk = (ch·kh+ky)·kw+kx of the column matrix into dst
// (length g.cols()): for every sample, the input plane of channel ch shifted
// by (ky, kx) and sampled at the stride. Which output positions read a real
// pixel depends only on (ky, kx), so each (sample, oy) run is a zero head, the
// in-bounds span and a zero tail with no per-element bounds test. Every
// element of dst is written — padding as explicit zeros — so dst may be dirty.
func im2colRow(dst, in []float32, g *im2colGeom, kk int) {
	kx := kk % g.kw
	ky := kk / g.kw % g.kh
	ch := kk / (g.kw * g.kh)
	oy0, oy1 := inBounds(g.oh, g.h, g.stride, ky-g.pad)
	ox0, ox1 := inBounds(g.ow, g.w, g.stride, kx-g.pad)
	if ox0 == ox1 {
		oy1 = oy0 // no column reads a pixel, so no run has a span: all padding
	}
	// Locals, so the stores to dst cannot force a reload of the geometry.
	w, ow, stride := g.w, g.ow, g.stride
	first := (ky-g.pad)*w + ox0*stride + kx - g.pad // oy = 0's first in-bounds pixel
	plane, inPlane := g.oh*ow, g.h*w
	for b := 0; b < g.b; b++ {
		d := dst[b*plane : (b+1)*plane]
		src := in[(b*g.c+ch)*inPlane : (b*g.c+ch+1)*inPlane]
		clear(d[:oy0*ow])
		for oy := oy0; oy < oy1; oy++ {
			run := d[oy*ow : (oy+1)*ow]
			clear(run[:ox0])
			s := src[first+oy*stride*w:]
			if stride == 1 {
				copy(run[ox0:ox1], s)
			} else {
				for i := range run[ox0:ox1] {
					run[ox0+i] = s[i*stride]
				}
			}
			clear(run[ox1:])
		}
		clear(d[oy1*ow:])
	}
}

// Im2ColBatch unrolls a (B, C, H, W) batch into the caller-provided column
// matrix of shape (C*kh*kw, B*oh*ow): columns [b*oh*ow, (b+1)*oh*ow) hold
// exactly Im2Col(sample b), so one GEMM against the reshaped kernel computes
// the convolution of the whole batch. Padding positions are written as
// explicit zeros, so out may be a reused (dirty) buffer.
func Im2ColBatch(in *Tensor, kh, kw, stride, pad int, out *Tensor) error {
	g, err := newIm2ColGeom("Im2ColBatch", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	rows, cols := g.rows(), g.cols()
	if len(out.Shape) != 2 || out.Shape[0] != rows || out.Shape[1] != cols {
		return fmt.Errorf("tensor: Im2ColBatch output shape %v, want (%d, %d)", out.Shape, rows, cols)
	}
	// The unroll overwrites out while gathering from in: aliasing would feed
	// already-rewritten values back into later columns.
	if overlaps(out.Data, in.Data) {
		return fmt.Errorf("tensor: Im2ColBatch output aliases the input")
	}
	for kk := 0; kk < rows; kk++ {
		im2colRow(out.Data[kk*cols:(kk+1)*cols], in.Data, &g, kk)
	}
	return nil
}

// PackIm2Col packs the column matrix of a (B, C, H, W) batch — what Pack would
// produce from Im2ColBatch's output — without materialising it: each row is
// unrolled into a one-row scratch that stays cache-resident and scattered into
// the panels from there.
func (p *PackedB) PackIm2Col(in *Tensor, kh, kw, stride, pad int) error {
	g, err := newIm2ColGeom("PackedB.PackIm2Col", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	// Panels and row scratch are rewritten while in is still being read.
	if overlaps(p.data[:cap(p.data)], in.Data) || overlaps(p.row[:cap(p.row)], in.Data) {
		return fmt.Errorf("tensor: PackedB.PackIm2Col input aliases the packed operand")
	}
	p.row = grow(p.row, g.cols())
	p.packRows(g.rows(), g.cols(), func(kk int) []float32 {
		im2colRow(p.row, in.Data, &g, kk)
		return p.row
	})
	return nil
}

// PackIm2Col is PackedB.PackIm2Col for the quantized operand: Pack of
// Im2ColBatch's output with the column matrix never built. The packer
// consumes rows in k-pairs, so the scratch holds two.
func (p *PackedBInt8) PackIm2Col(in *Tensor, kh, kw, stride, pad int, inv float32) error {
	g, err := newIm2ColGeom("PackedBInt8.PackIm2Col", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	if overlaps(p.rows[:cap(p.rows)], in.Data) {
		return fmt.Errorf("tensor: PackedBInt8.PackIm2Col input aliases the packed operand")
	}
	n := g.cols()
	p.rows = grow(p.rows, 2*n)
	p.packRows(g.rows(), n, inv, func(kk int) []float32 {
		r := p.rows[kk%2*n : (kk%2+1)*n]
		im2colRow(r, in.Data, &g, kk)
		return r
	})
	return nil
}
