//go:build amd64 && !noasm

// SSE2 output epilogue, eight floats a turn (then four, then one): dst =
// src + addend, then the ReLU. ADDPS rounds each lane like the scalar add,
// and with the src value in the destination register a NaN in src wins over
// a NaN addend — the choice IEEE 754 leaves open, pinned by addSrcFirst in
// the spec. The ReLU keeps a lane where CMPPS $6 (NLE) holds — !(v <= 0),
// true for the positives, +Inf and every NaN — and ANDPS zeroes the rest, so
// −0 and the negatives become +0 and NaNs of either sign keep their bits.
// MAXPS with zero would not do: it returns its second operand whenever
// either is a NaN and on a ±0 tie, so one operand order zeroes every NaN and
// the other keeps −0. A NaN comparand switches the ReLU off: v <= NaN is
// false for every v, so every lane is kept. The mask-only loop has no add,
// so signalling NaNs pass through unquieted.
//
// The pass is bound by instructions more than by memory — a row already in
// L1 costs nearly as much per float as one streamed from memory — so the
// main loop takes two vectors a turn, halving the loop overhead.

#include "textflag.h"

// func epilogueRowAsm(dst, src, add *float32, n, step int, relu bool)
TEXT ·epilogueRowAsm(SB), NOSPLIT, $0-41
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    add+16(FP), DX
	MOVQ    n+24(FP), CX
	MOVQ    step+32(FP), R8
	MOVBLZX relu+40(FP), AX

	XORPS   X6, X6 // comparand 0: the ReLU
	TESTQ   AX, AX
	JNE     strides
	PCMPEQL X6, X6 // comparand NaN: every lane kept, the ReLU off

strides:
	MOVQ R8, R9
	SHLQ $4, R9 // addend bytes per vector step: 16, or 0 to broadcast
	SHLQ $2, R8 // addend bytes per scalar step: 4, or 0
	TESTQ DX, DX
	JEQ   mask

	CMPQ CX, $8
	JLT  addvec4

addvec8:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X3
	MOVUPS (DX), X2
	ADDPS  X2, X0
	ADDQ   R9, DX
	MOVUPS (DX), X2
	ADDPS  X2, X3
	MOVAPS X0, X1
	MOVAPS X3, X4
	CMPPS  X6, X1, $6
	CMPPS  X6, X4, $6
	ANDPS  X1, X0
	ANDPS  X4, X3
	MOVUPS X0, (DI)
	MOVUPS X3, 16(DI)

	ADDQ $32, SI
	ADDQ R9, DX
	ADDQ $32, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  addvec8

addvec4:
	CMPQ CX, $4
	JLT  addtail
	MOVUPS (SI), X0
	MOVUPS (DX), X2
	ADDPS  X2, X0
	MOVAPS X0, X1
	CMPPS  X6, X1, $6
	ANDPS  X1, X0
	MOVUPS X0, (DI)

	ADDQ $16, SI
	ADDQ R9, DX
	ADDQ $16, DI
	SUBQ $4, CX

addtail:
	TESTQ CX, CX
	JEQ   done

addscalar:
	MOVSS  (SI), X0
	MOVSS  (DX), X2
	ADDSS  X2, X0
	MOVAPS X0, X1
	CMPSS  X6, X1, $6
	ANDPS  X1, X0
	MOVSS  X0, (DI)

	ADDQ $4, SI
	ADDQ R8, DX
	ADDQ $4, DI
	DECQ CX
	JNE  addscalar
	RET

mask:
	CMPQ CX, $8
	JLT  maskvec4

maskvec8:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X3
	MOVAPS X0, X1
	MOVAPS X3, X4
	CMPPS  X6, X1, $6
	CMPPS  X6, X4, $6
	ANDPS  X1, X0
	ANDPS  X4, X3
	MOVUPS X0, (DI)
	MOVUPS X3, 16(DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  maskvec8

maskvec4:
	CMPQ CX, $4
	JLT  masktail
	MOVUPS (SI), X0
	MOVAPS X0, X1
	CMPPS  X6, X1, $6
	ANDPS  X1, X0
	MOVUPS X0, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX

masktail:
	TESTQ CX, CX
	JEQ   done

maskscalar:
	MOVSS  (SI), X0
	MOVAPS X0, X1
	CMPSS  X6, X1, $6
	ANDPS  X1, X0
	MOVSS  X0, (DI)

	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNE  maskscalar

done:
	RET
