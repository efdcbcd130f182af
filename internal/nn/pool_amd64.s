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
