// Batched im2col: the transform that lets a convolution layer process a whole
// (B, C, H, W) batch with a single packed GEMM (see gemm_packed.go).
package tensor

import "fmt"

// Im2ColBatch unrolls a (B, C, H, W) batch into the caller-provided column
// matrix of shape (C*kh*kw, B*oh*ow): columns [b*oh*ow, (b+1)*oh*ow) hold
// exactly Im2Col(sample b), so one GEMM against the reshaped kernel computes
// the convolution of the whole batch. Padding positions are written as
// explicit zeros, so out may be a reused (dirty) buffer.
func Im2ColBatch(in *Tensor, kh, kw, stride, pad int, out *Tensor) error {
	if len(in.Shape) != 4 {
		return fmt.Errorf("tensor: Im2ColBatch requires (B,C,H,W) input, got %v", in.Shape)
	}
	bsz, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: Im2ColBatch output is empty for input %v kernel %dx%d stride %d pad %d",
			in.Shape, kh, kw, stride, pad)
	}
	cols := bsz * oh * ow
	if len(out.Shape) != 2 || out.Shape[0] != c*kh*kw || out.Shape[1] != cols {
		return fmt.Errorf("tensor: Im2ColBatch output shape %v, want (%d, %d)", out.Shape, c*kh*kw, cols)
	}
	// The unroll overwrites out while gathering from in: aliasing would feed
	// already-rewritten values back into later columns.
	if overlaps(out.Data, in.Data) {
		return fmt.Errorf("tensor: Im2ColBatch output aliases the input")
	}
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				dst := out.Data[row*cols : (row+1)*cols]
				di := 0
				for b := 0; b < bsz; b++ {
					chBase := (b*c + ch) * h * w
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							for ox := 0; ox < ow; ox++ {
								dst[di] = 0
								di++
							}
							continue
						}
						rowBase := chBase + iy*w
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix >= 0 && ix < w {
								dst[di] = in.Data[rowBase+ix]
							} else {
								dst[di] = 0
							}
							di++
						}
					}
				}
			}
		}
	}
	return nil
}
