// Int8 quantized GEMM: symmetric per-tensor quantization into packed int16
// panels (int8-range values widened so the SIMD kernel can multiply-add
// pairs directly) with exact int32 accumulation.
//
// Determinism contract — stronger than the float path's: integer
// accumulation is associative, so the quantized result is identical for
// every kernel (assembly or portable) and every platform; there is no
// rounding order to preserve. The only float steps are quantization (v·inv,
// round half away from zero, clamp to ±127 — one float32 multiply with a
// fixed rule) and the final dequantize (float32(acc)·scale), both
// elementwise and order-free.
//
// Overflow safety: |q| ≤ 127, so one k-pair contributes ≤ 2·127² = 32258 and
// an int32 accumulator holds K up to ~66k k-pairs without overflow — three
// orders of magnitude above any model shape here. Dequantization is exact
// for |acc| ≤ 2²⁴ (float32 mantissa), far above the logits these layers see.
//
// Layout: PackedAInt8 panels are gemmMR rows × k-pairs, each (row, pair)
// slot holding two adjacent k values — the kernel broadcasts one slot and
// PMADDWD-multiplies it against a PackedBInt8 panel slot of gemmNR columns ×
// the same k-pair, interleaved [k0c0 k1c0 k0c1 k1c1 …]. Odd K pads the final
// pair with zero, which contributes exactly 0.
package tensor

import (
	"fmt"
	"math"
)

// Int8Scale carries one symmetric quantization scale: q = round(v·Inv)
// clamped to ±127, v ≈ float32(q)·Scale. Inv is the defining parameter;
// Scale is its reciprocal kept for exact-once dequantization.
type Int8Scale struct {
	Scale float32
	Inv   float32
}

// Int8ScaleFor builds the symmetric scale that maps ±maxAbs to ±127.
// maxAbs <= 0 (all-zero calibration) degrades to the identity scale.
func Int8ScaleFor(maxAbs float32) Int8Scale {
	if !(maxAbs > 0) {
		return Int8Scale{Scale: 1, Inv: 1}
	}
	s := maxAbs / 127
	return Int8Scale{Scale: s, Inv: 1 / s}
}

// QuantizeInt8 quantizes one value: clamp(v·inv) to [-127, 127], then round
// half to even. The clamp-then-convert order and tie rule mirror the SIMD
// packer exactly (MINPS/MAXPS then CVTPS2DQ under the default round-nearest
// mode), so the portable and assembly paths quantize every input — including
// NaN and ±Inf, which the MINPS clamp maps to +127 and the MAXPS clamp to
// -127 respectively — to the same integer on every platform.
func QuantizeInt8(v, inv float32) int8 {
	f := v * inv
	if !(f < 127) { // NaN and +big land on the upper clamp, like MINPS
		f = 127
	}
	if !(f > -127) {
		f = -127
	}
	return int8(int32(math.RoundToEven(float64(f))))
}

// MaxAbs returns the largest absolute value in x, ignoring NaNs (a NaN
// calibration sample must not poison the scale).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// PackedAInt8 is the quantized left operand: gemmMR-row panels over k-pairs,
// each slot two adjacent k values of one row.
type PackedAInt8 struct {
	M, K int
	data []int16
}

// PackedBInt8 is the quantized right operand: gemmNR-column panels over
// k-pairs, interleaved [k0c0 k1c0 k0c1 k1c1 …] per pair.
type PackedBInt8 struct {
	K, N int
	data []int16
	rows []float32 // PackIm2Col's k-pair unroll scratch
}

func growInt16(buf []int16, n int) []int16 {
	if cap(buf) < n {
		return make([]int16, n)
	}
	return buf[:n]
}

// kpairs rounds the inner dimension up to whole k-pairs.
func kpairs(k int) int { return (k + 1) / 2 }

// Pack quantizes and packs a (M×K) with q = round(v·inv) clamped to ±127.
func (p *PackedAInt8) Pack(a *Tensor, inv float32) error {
	if len(a.Shape) != 2 {
		return fmt.Errorf("tensor: PackedAInt8.Pack requires a 2-D operand, got %v", a.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	panels := (m + gemmMR - 1) / gemmMR
	kp := kpairs(k)
	p.data = growInt16(p.data, panels*kp*2*gemmMR)
	p.M, p.K = m, k
	for ip := 0; ip < panels; ip++ {
		i0 := ip * gemmMR
		dst := p.data[ip*kp*2*gemmMR:]
		for pair := 0; pair < kp; pair++ {
			for r := 0; r < gemmMR; r++ {
				s := dst[(pair*gemmMR+r)*2 : (pair*gemmMR+r)*2+2 : (pair*gemmMR+r)*2+2]
				i := i0 + r
				if i >= m {
					s[0], s[1] = 0, 0
					continue
				}
				row := a.Data[i*k : (i+1)*k]
				s[0] = int16(QuantizeInt8(row[2*pair], inv))
				if 2*pair+1 < k {
					s[1] = int16(QuantizeInt8(row[2*pair+1], inv))
				} else {
					s[1] = 0
				}
			}
		}
	}
	return nil
}

// Pack quantizes and packs b (K×N).
func (p *PackedBInt8) Pack(b *Tensor, inv float32) error {
	if len(b.Shape) != 2 {
		return fmt.Errorf("tensor: PackedBInt8.Pack requires a 2-D operand, got %v", b.Shape)
	}
	k, n := b.Shape[0], b.Shape[1]
	p.packRows(k, n, inv, func(kk int) []float32 { return b.Data[kk*n : (kk+1)*n] })
	return nil
}

// PackTransposed quantizes and packs wᵀ for w (N×K) — the dense-layer weight
// case, mirroring PackedB.PackTransposed.
func (p *PackedBInt8) PackTransposed(w *Tensor, inv float32) error {
	if len(w.Shape) != 2 {
		return fmt.Errorf("tensor: PackedBInt8.PackTransposed requires a 2-D operand, got %v", w.Shape)
	}
	n, k := w.Shape[0], w.Shape[1]
	panels := (n + gemmNR - 1) / gemmNR
	kp := kpairs(k)
	p.data = growInt16(p.data, panels*kp*2*gemmNR)
	p.K, p.N = k, n
	for jp := 0; jp < panels; jp++ {
		j0 := jp * gemmNR
		dst := p.data[jp*kp*2*gemmNR:]
		for pair := 0; pair < kp; pair++ {
			for c := 0; c < gemmNR; c++ {
				s := dst[(pair*gemmNR+c)*2 : (pair*gemmNR+c)*2+2 : (pair*gemmNR+c)*2+2]
				j := j0 + c
				if j >= n {
					s[0], s[1] = 0, 0
					continue
				}
				row := w.Data[j*k : (j+1)*k]
				s[0] = int16(QuantizeInt8(row[2*pair], inv))
				if 2*pair+1 < k {
					s[1] = int16(QuantizeInt8(row[2*pair+1], inv))
				} else {
					s[1] = 0
				}
			}
		}
	}
	return nil
}

func (p *PackedBInt8) packRows(k, n int, inv float32, row func(kk int) []float32) {
	panels := (n + gemmNR - 1) / gemmNR
	kp := kpairs(k)
	stride := kp * 2 * gemmNR // int16s per panel
	p.data = growInt16(p.data, panels*stride)
	p.K, p.N = k, n
	full := n / gemmNR // panels with no column padding
	for pair := 0; pair < kp; pair++ {
		r0 := row(2 * pair)
		var r1 []float32
		if 2*pair+1 < k {
			r1 = row(2*pair + 1)
		}
		base := pair * gemmNR * 2
		jp := 0
		if haveGemmAsm && r1 != nil && full > 0 {
			// SIMD fast path: quantize, clamp, convert and pair-interleave
			// one k-pair across all full panels in a single sweep.
			quantPackPairAsm(&p.data[base], &r0[0], &r1[0], inv, full, stride)
			jp = full
		}
		for ; jp < panels; jp++ {
			dst := p.data[jp*stride+base : jp*stride+base+2*gemmNR]
			j0 := jp * gemmNR
			for c := 0; c < gemmNR; c++ {
				j := j0 + c
				if j >= n {
					dst[2*c], dst[2*c+1] = 0, 0
					continue
				}
				dst[2*c] = int16(QuantizeInt8(r0[j], inv))
				if r1 != nil {
					dst[2*c+1] = int16(QuantizeInt8(r1[j], inv))
				} else {
					dst[2*c+1] = 0
				}
			}
		}
	}
}

// GemmInt8Packed computes the exact int32 product C = Aq·Bq of the quantized
// operands into c (row-major M×N). Results are identical on every platform
// and kernel — integer accumulation has no rounding order.
func GemmInt8Packed(c []int32, pa *PackedAInt8, pb *PackedBInt8) error {
	if pa.data == nil || pb.data == nil {
		return fmt.Errorf("tensor: GemmInt8Packed on unpacked operands")
	}
	if pa.K != pb.K {
		return fmt.Errorf("tensor: GemmInt8Packed inner dimensions %d and %d differ", pa.K, pb.K)
	}
	if len(c) != pa.M*pb.N {
		return fmt.Errorf("tensor: GemmInt8Packed output length %d, want %d", len(c), pa.M*pb.N)
	}
	m, n := pa.M, pb.N
	kp := kpairs(pa.K)
	mPanels := (m + gemmMR - 1) / gemmMR
	nPanels := (n + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		bp := pb.data[jp*kp*2*gemmNR : (jp+1)*kp*2*gemmNR]
		j0 := jp * gemmNR
		nr := n - j0
		if nr > gemmNR {
			nr = gemmNR
		}
		for ip := 0; ip < mPanels; ip++ {
			ap := pa.data[ip*kp*2*gemmMR : (ip+1)*kp*2*gemmMR]
			i0 := ip * gemmMR
			mr := m - i0
			if mr > gemmMR {
				mr = gemmMR
			}
			if haveGemmAsm {
				if mr == gemmMR && nr == gemmNR {
					gemmInt8MicroAsm(&c[i0*n+j0], &ap[0], &bp[0], n, kp)
					continue
				}
				var scratch [gemmMR * gemmNR]int32
				gemmInt8MicroAsm(&scratch[0], &ap[0], &bp[0], gemmNR, kp)
				for r := 0; r < mr; r++ {
					row := c[(i0+r)*n+j0:]
					for cc := 0; cc < nr; cc++ {
						row[cc] = scratch[r*gemmNR+cc]
					}
				}
				continue
			}
			gemmInt8MicroGo(c, n, i0, j0, mr, nr, kp, ap, bp)
		}
	}
	return nil
}

// gemmInt8MicroGo is the portable micro-kernel and executable spec for the
// assembly one: exact int32 accumulation over k-pairs.
func gemmInt8MicroGo(c []int32, ldc, i0, j0, mr, nr, kp int, ap, bp []int16) {
	var acc [gemmMR][gemmNR]int32
	for pair := 0; pair < kp; pair++ {
		av := ap[pair*gemmMR*2 : (pair+1)*gemmMR*2]
		bv := bp[pair*gemmNR*2 : (pair+1)*gemmNR*2]
		for r := 0; r < gemmMR; r++ {
			a0 := int32(av[2*r])
			a1 := int32(av[2*r+1])
			row := &acc[r]
			for cc := 0; cc < gemmNR; cc++ {
				row[cc] += a0*int32(bv[2*cc]) + a1*int32(bv[2*cc+1])
			}
		}
	}
	for r := 0; r < mr; r++ {
		row := c[(i0+r)*ldc+j0:]
		for cc := 0; cc < nr; cc++ {
			row[cc] = acc[r][cc]
		}
	}
}
