//go:build amd64 && !noasm

// SSE2 micro-kernel for GemmPacked: one 4×8 output tile held in eight XMM
// accumulators (row r lives in X(2r) cols 0–3 and X(2r+1) cols 4–7) across
// the full K loop. MULPS/ADDPS perform one IEEE single rounding per lane per
// op — no FMA contraction — and every lane accumulates in ascending k order,
// so the tile is bitwise identical to the scalar reference kernel.

#include "go_asm.h"
#include "textflag.h"

// func gemmMicroAsm(c, ap, bp *float32, ldc, kk int)
TEXT ·gemmMicroAsm(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ kk+32(FP), AX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

loop:
	MOVUPS (DX), X8    // b[k][0:4]
	MOVUPS 16(DX), X9  // b[k][4:8]

	MOVSS  (SI), X10   // broadcast a[k][0]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  4(SI), X10  // broadcast a[k][1]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X2
	ADDPS  X11, X3

	MOVSS  8(SI), X10  // broadcast a[k][2]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5

	MOVSS  12(SI), X10 // broadcast a[k][3]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X6
	ADDPS  X11, X7

	ADDQ $16, SI
	ADDQ $32, DX
	DECQ AX
	JNE  loop

	// Store the tile: rows at c, c+ldc, c+2·ldc, c+3·ldc (float strides).
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	LEAQ   (DI)(CX*4), DI
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	LEAQ   (DI)(CX*4), DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	LEAQ   (DI)(CX*4), DI
	MOVUPS X6, (DI)
	MOVUPS X7, 16(DI)
	RET

// AVX2 micro-kernel: one 4×16 tile from one A panel and two adjacent 8-column
// B panels (bp and bp+bstride floats), held in eight YMM accumulators (row r
// lives in Y(2r) for the first panel and Y(2r+1) for the second). Eight
// independent VADDPS chains hide the add latency a 4×8 ymm tile could not.
// VMULPS/VADDPS round each lane once per op, with no FMA, and keep the same
// operand order as the SSE2 kernel, so every lane is bitwise identical to it.

// func gemmMicro2AVX2(c, ap, bp *float32, ldc, kk, bstride int)
TEXT ·gemmMicro2AVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ kk+32(FP), AX
	MOVQ bstride+40(FP), R8
	LEAQ (DX)(R8*4), R8 // second B panel

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

avx2loop:
	VMOVUPS (DX), Y8 // b[k][0:8]
	VMOVUPS (R8), Y9 // b[k][8:16]

	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1

	VBROADCASTSS 4(SI), Y13
	VMULPS       Y8, Y13, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3

	VBROADCASTSS 8(SI), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y5, Y5

	VBROADCASTSS 12(SI), Y13
	VMULPS       Y8, Y13, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7

	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, R8
	DECQ AX
	JNE  avx2loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// AVX-512 micro-kernel: one 4×32 tile over four adjacent B panels in eight
// ZMM accumulators (row r: Z(2r) panels 0–1, Z(2r+1) panels 2–3). A 16-lane B
// row is a VMOVUPS ymm load plus a VINSERTF64X4 of the next panel's row (both
// AVX-512F), and VMULPS/VADDPS keep the AVX2 kernel's operand order, no FMA.

// func gemmMicro4AVX512(c, ap, bp *float32, ldc, kk, bstride int)
TEXT ·gemmMicro4AVX512(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ kk+32(FP), AX
	MOVQ bstride+40(FP), R8
	SHLQ $2, R8          // panel stride in bytes
	LEAQ (DX)(R8*2), R9  // third B panel

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

avx512loop:
	VMOVUPS      (DX), Y8                // b[k][0:8]
	VINSERTF64X4 $1, (DX)(R8*1), Z8, Z8  // b[k][8:16]
	VMOVUPS      (R9), Y9                // b[k][16:24]
	VINSERTF64X4 $1, (R9)(R8*1), Z9, Z9  // b[k][24:32]

	VBROADCASTSS (SI), Z10
	VMULPS       Z8, Z10, Z11
	VMULPS       Z9, Z10, Z12
	VADDPS       Z11, Z0, Z0
	VADDPS       Z12, Z1, Z1

	VBROADCASTSS 4(SI), Z13
	VMULPS       Z8, Z13, Z14
	VMULPS       Z9, Z13, Z15
	VADDPS       Z14, Z2, Z2
	VADDPS       Z15, Z3, Z3

	VBROADCASTSS 8(SI), Z10
	VMULPS       Z8, Z10, Z11
	VMULPS       Z9, Z10, Z12
	VADDPS       Z11, Z4, Z4
	VADDPS       Z12, Z5, Z5

	VBROADCASTSS 12(SI), Z13
	VMULPS       Z8, Z13, Z14
	VMULPS       Z9, Z13, Z15
	VADDPS       Z14, Z6, Z6
	VADDPS       Z15, Z7, Z7

	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, R9
	DECQ AX
	JNE  avx512loop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	LEAQ    (DI)(CX*4), DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET

// AVX2 conv panel writers: one k-major 8-column panel, one 32-byte row per
// k. off holds each row's offset (in floats) from src; the load form reads
// eight consecutive floats there, the two-run form two such loads, the
// gather form the eight lanes at idx from it. All only move bits, so the
// panel is exactly the Go packer's.

// func packPanelLoadAVX2(dst, src *float32, off *int, kk int)
TEXT ·packPanelLoadAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ kk+24(FP), CX

loadloop:
	MOVQ    (DX), R8
	VMOVUPS (SI)(R8*4), Y0
	VMOVUPS Y0, (DI)
	ADDQ    $8, DX
	ADDQ    $32, DI
	DECQ    CX
	JNE     loadloop
	VZEROUPPER
	RET

// The two runs of a panel crossing one output row: lanes [0, r) come from
// the load at src + off[row], lanes [r, 8) from the load shift floats
// further on, selected by the mask's sign bits. Both loads end at or before
// the panel's last lane, so they read nothing the gather would not.

// func packPanelLoad2AVX2(dst, src *float32, off *int, kk, shift int, mask *[gemmNR]int32)
TEXT ·packPanelLoad2AVX2(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    off+16(FP), DX
	MOVQ    kk+24(FP), CX
	MOVQ    shift+32(FP), BX
	LEAQ    (SI)(BX*4), BX // src + shift
	MOVQ    mask+40(FP), AX
	VMOVDQU (AX), Y3 // lanes of the second run

load2loop:
	MOVQ      (DX), R8
	VMOVUPS   (SI)(R8*4), Y0
	VMOVUPS   (BX)(R8*4), Y1
	VBLENDVPS Y3, Y1, Y0, Y0 // Y0 = mask ? Y1 : Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $8, DX
	ADDQ      $32, DI
	DECQ      CX
	JNE       load2loop
	VZEROUPPER
	RET

// VGATHERDPS loads only the lanes whose mask sign bit is set and clears the
// mask as it goes, so each row gathers into a zeroed register with a fresh
// copy of the mask: dead lanes store +0 and are never read.

// func packPanelGatherAVX2(dst, src *float32, off *int, kk int, idx, mask *[gemmNR]int32)
TEXT ·packPanelGatherAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    off+16(FP), DX
	MOVQ    kk+24(FP), CX
	MOVQ    idx+32(FP), AX
	VMOVDQU (AX), Y2 // lane indices
	MOVQ    mask+40(FP), AX
	VMOVDQU (AX), Y3 // live lanes

gatherloop:
	MOVQ       (DX), R8
	LEAQ       (SI)(R8*4), R8
	VXORPS     Y0, Y0, Y0
	VMOVDQU    Y3, Y1
	VGATHERDPS Y1, (R8)(Y2*4), Y0
	VMOVUPS    Y0, (DI)
	ADDQ       $8, DX
	ADDQ       $32, DI
	DECQ       CX
	JNE        gatherloop
	VZEROUPPER
	RET

// hostGemmArm returns armAVX2 when CPUID leaf 7 exists, CPUID.1:ECX OSXSAVE
// and AVX, XCR0 bits 1–2 and CPUID.7.0:EBX bit 5 are set; armAVX512 if also
// CPUID.7.0:EBX bit 16 (AVX-512F) and XCR0 bits 5–7 (opmask and ZMM state);
// else armSSE2. Hand-written: golang.org/x/sys/cpu is not a dependency.

// func hostGemmArm() int
TEXT ·hostGemmArm(SB), NOSPLIT, $0-8
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx2

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx2

	XORL CX, CX
	XGETBV
	MOVL AX, R8 // XCR0
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2

	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  noavx2
	BTL  $16, BX
	JCC  noavx512
	ANDL $0xE6, R8
	CMPL R8, $0xE6
	JNE  noavx512
	MOVQ $const_armAVX512, ret+0(FP)
	RET

noavx512:
	MOVQ $const_armAVX2, ret+0(FP)
	RET

noavx2:
	MOVQ $const_armSSE2, ret+0(FP)
	RET

// Int8 micro-kernel: one 4×8 int32 tile from quantized k-pair panels. Each
// PMADDWD (PMADDWL) multiplies eight int16 values pairwise and adds adjacent
// products into four int32 lanes — one instruction covers two k steps of
// four output columns; PADDL accumulation is exact, so the result equals the
// portable kernel's by value with no rounding-order caveat.

// func gemmInt8MicroAsm(c *int32, ap, bp *int16, ldc, kp int)
TEXT ·gemmInt8MicroAsm(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ kp+32(FP), AX

	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7

int8loop:
	MOVOU (DX), X8     // b pairs, cols 0–3
	MOVOU 16(DX), X9   // b pairs, cols 4–7

	MOVL    (SI), X10  // a pair, row 0 → broadcast dword
	PSHUFL  $0x00, X10, X10
	MOVO    X10, X11
	PMADDWL X8, X10
	PMADDWL X9, X11
	PADDL   X10, X0
	PADDL   X11, X1

	MOVL    4(SI), X10 // row 1
	PSHUFL  $0x00, X10, X10
	MOVO    X10, X11
	PMADDWL X8, X10
	PMADDWL X9, X11
	PADDL   X10, X2
	PADDL   X11, X3

	MOVL    8(SI), X10 // row 2
	PSHUFL  $0x00, X10, X10
	MOVO    X10, X11
	PMADDWL X8, X10
	PMADDWL X9, X11
	PADDL   X10, X4
	PADDL   X11, X5

	MOVL    12(SI), X10 // row 3
	PSHUFL  $0x00, X10, X10
	MOVO    X10, X11
	PMADDWL X8, X10
	PMADDWL X9, X11
	PADDL   X10, X6
	PADDL   X11, X7

	ADDQ $16, SI
	ADDQ $32, DX
	DECQ AX
	JNE  int8loop

	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	LEAQ  (DI)(CX*4), DI
	MOVOU X2, (DI)
	MOVOU X3, 16(DI)
	LEAQ  (DI)(CX*4), DI
	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	LEAQ  (DI)(CX*4), DI
	MOVOU X6, (DI)
	MOVOU X7, 16(DI)
	RET

// Quantize-and-pack: one k-pair of rows swept across all full panels.
// Pipeline per panel: v·inv (MULPS) → clamp to [-127, 127] (MINPS maps NaN
// and +big to +127, MAXPS the rest to -127) → CVTPS2PL (round half to even)
// → PACKSSLW to int16 (saturation inert after the clamp) → PUNPCK[L/H]WD to
// the [k0c k1c] pair interleave the GEMM kernel consumes. The scalar
// QuantizeInt8 implements the identical pipeline, so both packers agree on
// every input.

// func quantPackPairAsm(dst *int16, r0, r1 *float32, inv float32, panels, stride int)
TEXT ·quantPackPairAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVSS inv+24(FP), X12
	SHUFPS $0x00, X12, X12
	MOVQ panels+32(FP), AX
	MOVQ stride+40(FP), R8
	SHLQ $1, R8               // stride: int16 elements → bytes

	MOVL $0x42FE0000, R9      // 127.0f
	MOVL R9, X13
	SHUFPS $0x00, X13, X13
	MOVL $0xC2FE0000, R9      // -127.0f
	MOVL R9, X14
	SHUFPS $0x00, X14, X14

packloop:
	MOVUPS (SI), X8           // r0 cols 0–3
	MOVUPS 16(SI), X9         // r0 cols 4–7
	MOVUPS (DX), X10          // r1 cols 0–3
	MOVUPS 16(DX), X11        // r1 cols 4–7
	MULPS  X12, X8
	MULPS  X12, X9
	MULPS  X12, X10
	MULPS  X12, X11
	MINPS  X13, X8
	MINPS  X13, X9
	MINPS  X13, X10
	MINPS  X13, X11
	MAXPS  X14, X8
	MAXPS  X14, X9
	MAXPS  X14, X10
	MAXPS  X14, X11
	CVTPS2PL X8, X8
	CVTPS2PL X9, X9
	CVTPS2PL X10, X10
	CVTPS2PL X11, X11
	PACKSSLW X9, X8           // r0 as 8 int16
	PACKSSLW X11, X10         // r1 as 8 int16
	MOVO     X8, X15
	PUNPCKLWL X10, X8         // [r0c0 r1c0 … r0c3 r1c3]
	PUNPCKHWL X10, X15        // [r0c4 r1c4 … r0c7 r1c7]
	MOVOU X8, (DI)
	MOVOU X15, 16(DI)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ R8, DI
	DECQ AX
	JNE  packloop
	RET
