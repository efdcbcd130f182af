//go:build amd64 && !noasm

// SSE2 kernel for the 2×2 max-pool. The scalar spec seeds best with the
// window's first element and then applies "if v > best { best = v }" in
// window order x00, x01, x10, x11. MAXPS computes dst > src ? dst : src and
// returns src whenever either operand is NaN or both are zeros, so with the
// candidate in dst and the running best in src one MAXPS is exactly one step
// of that rule (the result, left in the candidate's register, is the next
// best). The fold must stay in window order: a vertical-first fold would let
// a NaN in x01 hide x11 and would resolve +0/−0 ties differently.

#include "textflag.h"

// func maxPool2x2RowAsm(dst, r0, r1 *float32, n int)
TEXT ·maxPool2x2RowAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ n+24(FP), CX

	CMPQ CX, $4
	JLT  tail

vec:
	// Four windows: de-interleave eight floats of each row into even lanes
	// (left column) and odd lanes (right column).
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X0 // x00: r0[0] r0[2] r0[4] r0[6]
	SHUFPS $0xDD, X1, X2 // x01: r0[1] r0[3] r0[5] r0[7]
	MOVUPS (DX), X3
	MOVUPS 16(DX), X1
	MOVAPS X3, X4
	SHUFPS $0x88, X1, X3 // x10
	SHUFPS $0xDD, X1, X4 // x11
	MAXPS  X0, X2        // best = x01 > x00 ? x01 : x00
	MAXPS  X2, X3        // best = x10 > best ? x10 : best
	MAXPS  X3, X4        // best = x11 > best ? x11 : best
	MOVUPS X4, (DI)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $16, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  vec

tail:
	TESTQ CX, CX
	JEQ   done

scalar:
	MOVSS (SI), X0
	MOVSS 4(SI), X2
	MOVSS (DX), X3
	MOVSS 4(DX), X4
	MAXSS X0, X2
	MAXSS X2, X3
	MAXSS X3, X4
	MOVSS X4, (DI)

	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $4, DI
	DECQ CX
	JNE  scalar

done:
	RET

// maxPool2x2BackRowAsm is maxPool2x2BackRowGo four windows at a time, with a
// one-window tail. Each window finds its first maximum as masks: mN is
// "candidate N > running best" (CMPPS predicate 1, dst < src, false on NaN,
// so a NaN seed keeps its place and a NaN candidate never wins), and the
// running best is blended with AND/ANDN/OR. The winner is the last candidate
// whose mask is set: d on m3, c on m2 &^ m3, b on m1 &^ (m2|m3), a on none.
// Each pixel stores +0 + g under its winner mask and +0 elsewhere.
//
// In: X0 = a, X1 = b, X2 = c, X3 = d, X8 = g. Out: X6 = da, X11 = db,
// X10 = dc, X9 = dd. Clobbers X5, X7, X12.
#define WINDOWS2X2 \
	MOVAPS X0, X6; CMPPS X1, X6, $1; \
	MOVAPS X6, X5; ANDNPS X0, X5; \
	MOVAPS X6, X7; ANDPS X1, X7; ORPS X7, X5; \
	MOVAPS X5, X7; CMPPS X2, X7, $1; \
	MOVAPS X7, X9; ANDNPS X5, X9; \
	MOVAPS X7, X10; ANDPS X2, X10; ORPS X10, X9; \
	CMPPS X3, X9, $1; \
	MOVAPS X9, X10; ANDNPS X7, X10; \
	ORPS X9, X7; \
	MOVAPS X7, X11; ANDNPS X6, X11; \
	ORPS X7, X6; \
	XORPS X12, X12; ADDPS X8, X12; \
	ANDNPS X12, X6; \
	ANDPS X12, X11; \
	ANDPS X12, X10; \
	ANDPS X12, X9

// func maxPool2x2BackRowAsm(d0, d1, r0, r1, grad *float32, n int)
TEXT ·maxPool2x2BackRowAsm(SB), NOSPLIT, $0-48
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), R8
	MOVQ r0+16(FP), SI
	MOVQ r1+24(FP), DX
	MOVQ grad+32(FP), R9
	MOVQ n+40(FP), CX

	CMPQ CX, $4
	JLT  backtail

backvec:
	// De-interleave as the forward does: even lanes a/c, odd lanes b/d.
	MOVUPS (SI), X0
	MOVUPS 16(SI), X4
	MOVAPS X0, X1
	SHUFPS $0x88, X4, X0
	SHUFPS $0xDD, X4, X1
	MOVUPS (DX), X2
	MOVUPS 16(DX), X4
	MOVAPS X2, X3
	SHUFPS $0x88, X4, X2
	SHUFPS $0xDD, X4, X3
	MOVUPS (R9), X8
	WINDOWS2X2

	// Re-interleave: row 0 is da0 db0 da1 db1 | da2 db2 da3 db3, row 1 the
	// same of dc and dd.
	MOVAPS   X6, X13
	UNPCKLPS X11, X13
	UNPCKHPS X11, X6
	MOVUPS   X13, (DI)
	MOVUPS   X6, 16(DI)
	MOVAPS   X10, X13
	UNPCKLPS X9, X13
	UNPCKHPS X9, X10
	MOVUPS   X13, (R8)
	MOVUPS   X10, 16(R8)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $16, R9
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  backvec

backtail:
	TESTQ CX, CX
	JEQ   backdone

backscalar:
	// One window in lane 0; MOVSS from memory zeroes the other lanes.
	MOVSS (SI), X0
	MOVSS 4(SI), X1
	MOVSS (DX), X2
	MOVSS 4(DX), X3
	MOVSS (R9), X8
	WINDOWS2X2
	MOVSS X6, (DI)
	MOVSS X11, 4(DI)
	MOVSS X10, (R8)
	MOVSS X9, 4(R8)

	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $4, R9
	DECQ CX
	JNE  backscalar

backdone:
	RET
