// Packed register-blocked GEMM: the throughput kernels behind the fused
// inference path. Both operands are repacked once into panel layouts that the
// MR×NR micro-kernel reads strictly sequentially — the A panels of a layer's
// weights are packed once per weight epoch and cached (see nn.InferenceArena),
// the B panels of the activations once per call.
//
// Determinism contract: every output element accumulates
// its K partial products in ascending k order inside a register-resident
// accumulator, exactly like MatMul's scalar loop, so GemmPacked results are
// bitwise identical to MatMul. Every micro-kernel vectorises across *output
// elements* only, with one IEEE single rounding per multiply and per add and
// no FMA, so all produce the same bits: on amd64, a 4×32 AVX-512 kernel over
// four adjacent column panels, a 4×16 AVX2 kernel over two, else the 4×8
// SSE2 one (the last panels of the column edge, hosts without AVX2); the
// pure-Go kernel, the executable spec, off amd64 and under the noasm tag.
// Packing pads partial edge panels with zeros; padded lanes have their own
// accumulator lanes which are simply never stored, so even a 0·Inf = NaN
// computed in a dead lane cannot leak into the output.
//
// Cache shape: the micro-kernel holds the full K extent of one MR×NR tile in
// registers (the K values seen here — im2col rows of C·kh·kw ≤ a few hundred —
// keep both panels L1-resident), and the A panel of the current row block
// stays hot while the B panels stream exactly once per row block.
package tensor

import "fmt"

const (
	// gemmMR × gemmNR is the register block: one micro-kernel call keeps
	// MR·NR accumulators live across the whole inner dimension — on amd64,
	// eight 4-lane XMM registers (4 rows × 8 columns).
	gemmMR = 4
	gemmNR = 8
)

// PackedA is the left operand packed into gemmMR-row panels: panel ip holds
// rows [ip·MR, ip·MR+MR) stored k-major (for each k, the MR row values are
// contiguous), padded with zeros past the last row. Pack with reuse — the
// buffer is grown once and repacking the same shape never allocates.
type PackedA struct {
	M, K int
	data []float32
}

// PackedB is the right operand packed into gemmNR-column panels: panel jp
// holds columns [jp·NR, jp·NR+NR) stored k-major, zero-padded past the last
// column.
type PackedB struct {
	K, N   int
	data   []float32
	padded []float32 // the im2col packers' zero-padded copy of the image
	offs   []int     // their per-row (ch, ky, kx) offsets into it
	bases  []int     // PackIm2ColTransposed's per-column (b, oy, ox) bases
}

// grow resizes buf to n elements, reusing capacity when possible.
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Pack packs a (M×K) into MR-row panels, reusing the buffer.
func (p *PackedA) Pack(a *Tensor) error {
	if len(a.Shape) != 2 {
		return fmt.Errorf("tensor: PackedA.Pack requires a 2-D operand, got %v", a.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	panels := (m + gemmMR - 1) / gemmMR
	p.data = grow(p.data, panels*k*gemmMR)
	p.M, p.K = m, k
	for ip := 0; ip < panels; ip++ {
		i0 := ip * gemmMR
		dst := p.data[ip*k*gemmMR : (ip+1)*k*gemmMR]
		if i0+gemmMR <= m {
			// Full panel: interleave MR source rows.
			r0 := a.Data[i0*k : (i0+1)*k]
			r1 := a.Data[(i0+1)*k : (i0+2)*k]
			r2 := a.Data[(i0+2)*k : (i0+3)*k]
			r3 := a.Data[(i0+3)*k : (i0+4)*k]
			for kk := 0; kk < k; kk++ {
				d := dst[kk*gemmMR : kk*gemmMR+gemmMR : kk*gemmMR+gemmMR]
				d[0] = r0[kk]
				d[1] = r1[kk]
				d[2] = r2[kk]
				d[3] = r3[kk]
			}
			continue
		}
		for kk := 0; kk < k; kk++ {
			for r := 0; r < gemmMR; r++ {
				if i := i0 + r; i < m {
					dst[kk*gemmMR+r] = a.Data[i*k+kk]
				} else {
					dst[kk*gemmMR+r] = 0
				}
			}
		}
	}
	return nil
}

// PackTransposed packs aᵀ for a (K×M) — the backward-pass case where the left
// operand is the transpose of a stored matrix (Kᵀ for a convolution's input
// gradient, Gᵀ for a dense layer's weight gradient). Equivalent to Pack on a
// materialised transpose; the k-major panel layout makes every panel row a
// contiguous run of a source row.
func (p *PackedA) PackTransposed(a *Tensor) error {
	if len(a.Shape) != 2 {
		return fmt.Errorf("tensor: PackedA.PackTransposed requires a 2-D operand, got %v", a.Shape)
	}
	k, m := a.Shape[0], a.Shape[1]
	panels := (m + gemmMR - 1) / gemmMR
	p.data = grow(p.data, panels*k*gemmMR)
	p.M, p.K = m, k
	for ip := 0; ip < panels; ip++ {
		i0 := ip * gemmMR
		live := min(gemmMR, m-i0)
		dst := p.data[ip*k*gemmMR : (ip+1)*k*gemmMR]
		for kk := 0; kk < k; kk++ {
			d := dst[kk*gemmMR : (kk+1)*gemmMR]
			clear(d[copy(d, a.Data[kk*m+i0:kk*m+i0+live]):])
		}
	}
	return nil
}

// Pack packs b (K×N) into NR-column panels, reusing the buffer. The source is
// read row-by-row (sequentially) and scattered into the panel slots.
func (p *PackedB) Pack(b *Tensor) error {
	if len(b.Shape) != 2 {
		return fmt.Errorf("tensor: PackedB.Pack requires a 2-D operand, got %v", b.Shape)
	}
	k, n := b.Shape[0], b.Shape[1]
	panels := (n + gemmNR - 1) / gemmNR
	p.data = grow(p.data, panels*k*gemmNR)
	p.K, p.N = k, n
	full := n / gemmNR // panels with no column padding
	for kk := 0; kk < k; kk++ {
		src := b.Data[kk*n : (kk+1)*n]
		base := kk * gemmNR
		for jp := 0; jp < full; jp++ {
			d := p.data[jp*k*gemmNR+base : jp*k*gemmNR+base+gemmNR : jp*k*gemmNR+base+gemmNR]
			s := src[jp*gemmNR : jp*gemmNR+gemmNR : jp*gemmNR+gemmNR]
			d[0] = s[0]
			d[1] = s[1]
			d[2] = s[2]
			d[3] = s[3]
			d[4] = s[4]
			d[5] = s[5]
			d[6] = s[6]
			d[7] = s[7]
		}
		if full < panels {
			d := p.data[full*k*gemmNR+base : full*k*gemmNR+base+gemmNR]
			j0 := full * gemmNR
			for c := 0; c < gemmNR; c++ {
				if j := j0 + c; j < n {
					d[c] = src[j]
				} else {
					d[c] = 0
				}
			}
		}
	}
	return nil
}

// PackTransposed packs wᵀ for w (N×K) — the dense-layer case where the stored
// weight matrix is the transpose of the GEMM's right operand. Equivalent to
// Pack on a materialised transpose, without materialising it.
func (p *PackedB) PackTransposed(w *Tensor) error {
	if len(w.Shape) != 2 {
		return fmt.Errorf("tensor: PackedB.PackTransposed requires a 2-D operand, got %v", w.Shape)
	}
	n, k := w.Shape[0], w.Shape[1]
	panels := (n + gemmNR - 1) / gemmNR
	p.data = grow(p.data, panels*k*gemmNR)
	p.K, p.N = k, n
	for jp := 0; jp < panels; jp++ {
		j0 := jp * gemmNR
		dst := p.data[jp*k*gemmNR : (jp+1)*k*gemmNR]
		if j0+gemmNR <= n {
			// Full panel: interleave NR source rows.
			r0 := w.Data[(j0+0)*k : (j0+1)*k]
			r1 := w.Data[(j0+1)*k : (j0+2)*k]
			r2 := w.Data[(j0+2)*k : (j0+3)*k]
			r3 := w.Data[(j0+3)*k : (j0+4)*k]
			r4 := w.Data[(j0+4)*k : (j0+5)*k]
			r5 := w.Data[(j0+5)*k : (j0+6)*k]
			r6 := w.Data[(j0+6)*k : (j0+7)*k]
			r7 := w.Data[(j0+7)*k : (j0+8)*k]
			for kk := 0; kk < k; kk++ {
				d := dst[kk*gemmNR : kk*gemmNR+gemmNR : kk*gemmNR+gemmNR]
				d[0] = r0[kk]
				d[1] = r1[kk]
				d[2] = r2[kk]
				d[3] = r3[kk]
				d[4] = r4[kk]
				d[5] = r5[kk]
				d[6] = r6[kk]
				d[7] = r7[kk]
			}
			continue
		}
		for kk := 0; kk < k; kk++ {
			for c := 0; c < gemmNR; c++ {
				if j := j0 + c; j < n {
					dst[kk*gemmNR+c] = w.Data[j*k+kk]
				} else {
					dst[kk*gemmNR+c] = 0
				}
			}
		}
	}
	return nil
}

// GemmPacked computes C = A·B from pre-packed operands into the
// caller-provided C (M×N), overwriting its previous contents. Bitwise
// identical to MatMul(a, b). The B panel of the current column block streams
// once while every A panel is revisited — A is the smaller, cache-resident
// operand on the inference shapes (a layer's packed weights).
func GemmPacked(c *Tensor, pa *PackedA, pb *PackedB) error {
	if pa.data == nil || pb.data == nil {
		return fmt.Errorf("tensor: GemmPacked on unpacked operands")
	}
	if pa.K != pb.K {
		return fmt.Errorf("tensor: GemmPacked inner dimensions %d and %d differ", pa.K, pb.K)
	}
	if len(c.Shape) != 2 || c.Shape[0] != pa.M || c.Shape[1] != pb.N {
		return fmt.Errorf("tensor: GemmPacked output shape %v, want (%d, %d)", c.Shape, pa.M, pb.N)
	}
	if overlaps(c.Data, pa.data) || overlaps(c.Data, pb.data) {
		return fmt.Errorf("tensor: GemmPacked output aliases a packed operand")
	}
	k, n := pa.K, pb.N
	for j0 := 0; j0 < n; {
		tw := tileWidth(n - j0)
		gemmTile(c.Data, pa, pb.data[j0*k:(j0+tw)*k], n, j0, tw)
		j0 += tw
	}
	return nil
}

// tileWidth is the width of the next column tile when cols columns are
// left: four adjacent full column panels make one AVX-512 tile, two an AVX2
// one; the rest, the padded edge panel included, run 4×8.
func tileWidth(cols int) int {
	switch {
	case gemmArm == armAVX512 && cols >= 4*gemmNR:
		return 4 * gemmNR
	case gemmArm >= armAVX2 && cols >= 2*gemmNR:
		return 2 * gemmNR
	}
	return gemmNR
}

// gemmTile runs every A panel over one column tile: the tw columns from j0
// of the n-column C, whose B panels bp holds, storing only the live lanes.
func gemmTile(c []float32, pa *PackedA, bp []float32, n, j0, tw int) {
	m, k := pa.M, pa.K
	nr := min(tw, n-j0)
	for ip := 0; ip < (m+gemmMR-1)/gemmMR; ip++ {
		ap := pa.data[ip*k*gemmMR : (ip+1)*k*gemmMR]
		i0 := ip * gemmMR
		mr := min(gemmMR, m-i0)
		switch {
		case gemmArm == armGo:
			gemmMicroGo(c, n, i0, j0, mr, nr, k, ap, bp)
		case mr == gemmMR && nr == tw:
			microTile(&c[i0*n+j0], &ap[0], &bp[0], n, k, tw)
		default:
			// Edge tile: run the same kernel into a scratch tile,
			// then keep only the live lanes. The discarded lanes
			// are exactly the zero-padded panel rows/columns.
			var scratch [gemmMR * 4 * gemmNR]float32
			microTile(&scratch[0], &ap[0], &bp[0], tw, k, tw)
			for r := 0; r < mr; r++ {
				copy(c[(i0+r)*n+j0:(i0+r)*n+j0+nr], scratch[r*tw:])
			}
		}
	}
}

// The micro-kernel arms GemmPacked dispatches on (gemmArm); each runs the
// narrower ones on the column edge.
const (
	armGo     = iota // portable spec: off amd64 and under noasm
	armSSE2          // 4×8 xmm, the amd64 baseline
	armAVX2          // 4×16 ymm over column-panel pairs
	armAVX512        // 4×32 zmm over four column panels
)

// microTile runs one assembly register tile tw columns wide into c: the
// 4×32 AVX-512 kernel over the panel at bp and the next three, the 4×16
// AVX2 kernel over it and the next one, or the 4×8 SSE2 kernel over bp.
func microTile(c, ap, bp *float32, ldc, k, tw int) {
	switch tw {
	case 4 * gemmNR:
		gemmMicro4AVX512(c, ap, bp, ldc, k, k*gemmNR)
	case 2 * gemmNR:
		gemmMicro2AVX2(c, ap, bp, ldc, k, k*gemmNR)
	default:
		gemmMicroAsm(c, ap, bp, ldc, k)
	}
}

// gemmMicroGo is the portable micro-kernel and the executable spec for the
// assembly one: an MR×NR accumulator tile where every element sums its K
// partial products in ascending k order (the bitwise-identity contract),
// storing only the mr×nr live lanes.
func gemmMicroGo(cdata []float32, ldc, i0, j0, mr, nr, kk int, ap, bp []float32) {
	var acc [gemmMR][gemmNR]float32
	for k := 0; k < kk; k++ {
		av := ap[k*gemmMR : k*gemmMR+gemmMR : k*gemmMR+gemmMR]
		bv := bp[k*gemmNR : k*gemmNR+gemmNR : k*gemmNR+gemmNR]
		for r := 0; r < gemmMR; r++ {
			a := av[r]
			row := &acc[r]
			for cc := 0; cc < gemmNR; cc++ {
				row[cc] += a * bv[cc]
			}
		}
	}
	// Dead lanes (zero-padded panel rows/columns) are dropped here, so
	// nothing they accumulated can reach the output.
	for r := 0; r < mr; r++ {
		row := cdata[(i0+r)*ldc+j0:]
		for cc := 0; cc < nr; cc++ {
			row[cc] = acc[r][cc]
		}
	}
}
