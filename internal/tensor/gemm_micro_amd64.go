//go:build amd64 && !noasm

package tensor

// haveGemmAsm gates the SSE2 int8 kernel and packer and the SSE2 addRows;
// SSE2 is part of the amd64 baseline.
const haveGemmAsm = true

// gemmArm is GemmPacked's micro-kernel, chosen once at init by a CPUID/XGETBV
// check: AVX-512F or else AVX2 where the CPU and OS support it, else the SSE2
// baseline.
var gemmArm = hostGemmArm()

func hostGemmArm() int

// gemmMicroAsm computes one full gemmMR×gemmNR register tile from packed
// panels ap (k-major, MR-wide) and bp (k-major, NR-wide), storing rows at c,
// c+ldc, c+2·ldc, c+3·ldc. Each output element accumulates its kk partial
// products in ascending k order with one IEEE single rounding per multiply
// and per add (MULPS/ADDPS, no FMA), so the result is bitwise identical to
// the scalar gemmMicroGo. kk must be >= 1.
//
//go:noescape
func gemmMicroAsm(c, ap, bp *float32, ldc, kk int)

// gemmMicro2AVX2 is gemmMicroAsm over two adjacent B panels at once: a
// gemmMR×2·gemmNR tile from ap and the panels at bp and bp+bstride (in
// floats), 8-wide VMULPS/VADDPS with the same per-lane rounding and k order,
// so each half is bitwise identical to gemmMicroAsm on its panel. Requires
// AVX2; kk must be >= 1.
//
//go:noescape
func gemmMicro2AVX2(c, ap, bp *float32, ldc, kk, bstride int)

// gemmMicro4AVX512 is gemmMicro2AVX2 over the four B panels at bp +
// j·bstride, 16-wide with the same per-lane rounding and k order. Requires
// AVX-512F; kk must be >= 1.
//
//go:noescape
func gemmMicro4AVX512(c, ap, bp *float32, ldc, kk, bstride int)

// packPanelLoadAVX2 writes one k-major PackIm2Col panel whose eight columns
// are consecutive pixels: for each of the kk rows, the eight floats at
// src + off[row] (in floats) with one VMOVUPS. Requires AVX2; kk must be >= 1.
//
//go:noescape
func packPanelLoadAVX2(dst, src *float32, off *int, kk int)

// packPanelGatherAVX2 is packPanelLoadAVX2 for any other panel: lane c of each
// row is the float at src + off[row] + idx[c], one VGATHERDPS per row, and a
// lane whose mask is zero is stored as +0 without being read. Requires AVX2;
// kk must be >= 1.
//
//go:noescape
func packPanelGatherAVX2(dst, src *float32, off *int, kk int, idx, mask *[gemmNR]int32)

// addRowsAsm adds the rows·n floats at src, row by row, into rows runs of n
// floats ldd apart at dst: one IEEE single add per element with the src term
// as the first operand, addTermFirst lane by lane. n and rows must be >= 1.
//
//go:noescape
func addRowsAsm(dst, src *float32, n, rows, ldd int)

// gemmInt8MicroAsm computes one full gemmMR×gemmNR int32 tile from quantized
// k-pair panels (PMADDWD multiply-add of int16 pairs, PADDD accumulation).
// Integer arithmetic is exact, so this is identical to gemmInt8MicroGo by
// value, not just bitwise-compatible. kp must be >= 1.
//
//go:noescape
func gemmInt8MicroAsm(c *int32, ap, bp *int16, ldc, kp int)

// quantPackPairAsm quantizes one k-pair of rows (r0, r1) across `panels`
// full gemmNR-column panels: for panel jp it reads 8 floats from each row at
// column jp·8, computes clamp(v·inv) then CVTPS2DQ (round half to even —
// exactly QuantizeInt8), interleaves the two rows pairwise and stores 16
// int16s at dst + jp·stride. stride is in int16 elements.
//
//go:noescape
func quantPackPairAsm(dst *int16, r0, r1 *float32, inv float32, panels, stride int)
