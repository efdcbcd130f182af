// Batched im2col: the transform that lets a convolution layer process a whole
// (B, C, H, W) batch with a single packed GEMM (see gemm_packed.go). The float
// forward, serving and training alike, packs its GEMM panels straight from
// the image, one panel at a time (PackedB.PackIm2Col), and the training
// backward packs the transposed panels of its kernel-gradient GEMM the same
// way (PackedB.PackIm2ColTransposed). The row unroll im2colRow, which
// produces a single row of the column matrix, serves only Im2ColBatch (the
// matrix the tests pack and compare against, and mvbench's im2col probe) and
// the int8 packer PackedBInt8.PackIm2Col.
package tensor

import (
	"fmt"
	"math"
)

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
// produce from Im2ColBatch's output — without materialising it, panel by panel
// straight from the image. Column (b, oy, ox) of row kk = (ch, ky, kx) is the
// pixel at base(b, oy, ox) + off(ch, ky, kx) of the zero-padded
// (B, C, h+2·pad, w+2·pad) image; with pad > 0 the input is copied there once,
// so no read needs a bounds test. Each panel's eight column bases advance
// incrementally, then its K rows are written in order, each one eight-float
// load where the eight columns are consecutive pixels and a gather otherwise.
// Every slot is written, padding and dead lanes as zeros, so p may be dirty.
func (p *PackedB) PackIm2Col(in *Tensor, kh, kw, stride, pad int) error {
	g, err := newIm2ColGeom("PackedB.PackIm2Col", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	// Panels and the padded copy are rewritten while in is still being read.
	if p.aliases(in) {
		return fmt.Errorf("tensor: PackedB.PackIm2Col input aliases the packed operand")
	}
	src := p.image(in, &g)
	wp := g.w + 2*pad
	k, n := g.rows(), g.cols()
	panels := (n + gemmNR - 1) / gemmNR
	p.data = grow(p.data, panels*k*gemmNR)
	p.K, p.N = k, n
	// The column walk: the next column's base moves by the stride along an
	// output row, then by rowStep to the next row and by sampleStep to the
	// next sample's first row.
	rowStep := stride*wp - g.ow*stride
	sampleStep := g.c*(g.h+2*pad)*wp - g.oh*stride*wp
	base, ox, oy := 0, 0, 0
	for jp := 0; jp < panels; jp++ {
		live := min(gemmNR, n-jp*gemmNR)
		var lane [gemmNR]int // each column's base minus the panel's first
		b0 := base
		for c := 0; c < live; c++ {
			lane[c] = base - b0
			base += stride
			if ox++; ox == g.ow {
				ox, base = 0, base+rowStep
				if oy++; oy == g.oh {
					oy, base = 0, base+sampleStep
				}
			}
		}
		packPanel(p.data[jp*k*gemmNR:(jp+1)*k*gemmNR], src[b0:], p.offs, &lane, live)
	}
	return nil
}

// PackIm2ColTransposed packs the transpose of the column matrix of a
// (B, C, H, W) batch — what PackTransposed would produce from Im2ColBatch's
// output, the right operand of a convolution's dK = G·colsᵀ — without
// materialising it. It is PackIm2Col with the two offset tables swapped: a
// panel's eight lanes are eight consecutive rows kk = (ch, ky, kx) of the
// column matrix, at their (ch, ky, kx) offsets into the zero-padded image,
// and its K rows are the columns (b, oy, ox), at their bases. The panels go
// through the same packPanel kernels; every slot is written, so p may be
// dirty.
func (p *PackedB) PackIm2ColTransposed(in *Tensor, kh, kw, stride, pad int) error {
	g, err := newIm2ColGeom("PackedB.PackIm2ColTransposed", in, kh, kw, stride, pad)
	if err != nil {
		return err
	}
	if p.aliases(in) {
		return fmt.Errorf("tensor: PackedB.PackIm2ColTransposed input aliases the packed operand")
	}
	src := p.image(in, &g)
	hp, wp := g.h+2*pad, g.w+2*pad
	p.bases = p.bases[:0]
	for b := 0; b < g.b; b++ {
		for oy := 0; oy < g.oh; oy++ {
			for ox := 0; ox < g.ow; ox++ {
				p.bases = append(p.bases, b*g.c*hp*wp+oy*stride*wp+ox*stride)
			}
		}
	}
	k, n := g.cols(), g.rows()
	panels := (n + gemmNR - 1) / gemmNR
	p.data = grow(p.data, panels*k*gemmNR)
	p.K, p.N = k, n
	for jp := 0; jp < panels; jp++ {
		j0 := jp * gemmNR
		live := min(gemmNR, n-j0)
		var lane [gemmNR]int // each row's offset minus the panel's first
		for c := 0; c < live; c++ {
			lane[c] = p.offs[j0+c] - p.offs[j0]
		}
		packPanel(p.data[jp*k*gemmNR:(jp+1)*k*gemmNR], src[p.offs[j0]:], p.bases, &lane, live)
	}
	return nil
}

// aliases reports whether in shares memory with the panels or the padded
// copy, which the packers rewrite while in is still being read.
func (p *PackedB) aliases(in *Tensor) bool {
	return overlaps(p.data[:cap(p.data)], in.Data) || overlaps(p.padded[:cap(p.padded)], in.Data)
}

// image returns the image the packers read — in itself at pad 0, else its
// zero-padded (B, C, h+2·pad, w+2·pad) copy — and fills p.offs with the
// offset of each column-matrix row kk = (ch, ky, kx) into it.
func (p *PackedB) image(in *Tensor, g *im2colGeom) []float32 {
	src, hp, wp := in.Data, g.h+2*g.pad, g.w+2*g.pad
	if g.pad > 0 {
		p.padded = grow(p.padded, g.b*g.c*hp*wp)
		padImage(p.padded, in.Data, g)
		src = p.padded
	}
	p.offs = p.offs[:0]
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				p.offs = append(p.offs, (ch*hp+ky)*wp+kx)
			}
		}
	}
	return src
}

// padImage writes every (h, w) plane of in into the centre of its
// (h+2·pad, w+2·pad) plane in dst and zeroes the border, so dst may be dirty.
func padImage(dst, in []float32, g *im2colGeom) {
	h, w, pad := g.h, g.w, g.pad
	wp := w + 2*pad
	plane := (h + 2*pad) * wp
	for pl := 0; pl < g.b*g.c; pl++ {
		d := dst[pl*plane : (pl+1)*plane]
		s := in[pl*h*w : (pl+1)*h*w]
		clear(d[:pad*wp+pad]) // top rows, then the first row's left border
		for y := 0; y < h; y++ {
			row := d[(pad+y)*wp+pad:]
			copy(row[:w], s[y*w:(y+1)*w])
			// This row's right border and the next one's left: a few floats,
			// cheaper stored than through a clear call.
			for i := w; i < w+2*pad; i++ {
				row[i] = 0
			}
		}
		clear(d[(pad+h)*wp+pad:])
	}
}

// packPanel writes one k-major panel of len(off) rows: lane c of row kk is
// src[lane[c]+off[kk]], and lanes from live on are zero. The lane bases
// strictly increase, so eight live lanes ending at 7 are one contiguous run.
func packPanel(dst, src []float32, off []int, lane *[gemmNR]int, live int) {
	switch {
	case gemmArm < armAVX2 || !gatherFits(lane[live-1]):
		packPanelGo(dst, src, off, lane, live)
	case live == gemmNR && lane[gemmNR-1] == gemmNR-1:
		packPanelLoadAVX2(&dst[0], &src[0], &off[0], len(off))
	default:
		var idx, mask [gemmNR]int32
		for c := 0; c < live; c++ {
			idx[c], mask[c] = int32(lane[c]), -1
		}
		packPanelGatherAVX2(&dst[0], &src[0], &off[0], len(off), &idx, &mask)
	}
}

// gatherFits reports whether a panel whose last lane base is span floats past
// its first can be gathered: VGATHERDPS takes signed 32-bit lane indices.
func gatherFits(span int) bool { return span <= math.MaxInt32 }

// packPanelGo is packPanel's portable arm and the executable spec of the
// assembly ones.
func packPanelGo(dst, src []float32, off []int, lane *[gemmNR]int, live int) {
	if live == gemmNR && lane[gemmNR-1] == gemmNR-1 {
		for kk, o := range off {
			d := dst[kk*gemmNR : kk*gemmNR+gemmNR : kk*gemmNR+gemmNR]
			s := src[o : o+gemmNR : o+gemmNR]
			d[0] = s[0]
			d[1] = s[1]
			d[2] = s[2]
			d[3] = s[3]
			d[4] = s[4]
			d[5] = s[5]
			d[6] = s[6]
			d[7] = s[7]
		}
		return
	}
	if live == gemmNR {
		// The lane offsets in registers, not reloaded per row.
		l0, l1, l2, l3, l4, l5, l6, l7 := lane[0], lane[1], lane[2], lane[3], lane[4], lane[5], lane[6], lane[7]
		for kk, o := range off {
			d := dst[kk*gemmNR : kk*gemmNR+gemmNR : kk*gemmNR+gemmNR]
			s := src[o:]
			d[0] = s[l0]
			d[1] = s[l1]
			d[2] = s[l2]
			d[3] = s[l3]
			d[4] = s[l4]
			d[5] = s[l5]
			d[6] = s[l6]
			d[7] = s[l7]
		}
		return
	}
	for kk, o := range off {
		d := dst[kk*gemmNR : kk*gemmNR+gemmNR : kk*gemmNR+gemmNR]
		s := src[o:]
		for c := 0; c < live; c++ {
			d[c] = s[lane[c]]
		}
		clear(d[live:])
	}
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
