//go:build amd64 && !noasm

// SSE2 row add for addRows: dst[r·ldd+i] = src[r·n+i] + dst[r·ldd+i], eight
// floats an iteration in two XMM registers, then four, then a scalar tail.
// ADDPS/ADDSS round once per lane with the src term as the first operand,
// which is addTermFirst: a sum of two NaNs keeps the term's payload.

#include "textflag.h"

// func addRowsAsm(dst, src *float32, n, rows, ldd int)
TEXT ·addRowsAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ rows+24(FP), R8
	MOVQ ldd+32(FP), R9
	SHLQ $2, R9 // row pitch in bytes

row:
	MOVQ DI, R10
	MOVQ BX, CX
	CMPQ CX, $8
	JLT  four

eight:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS (R10), X2
	MOVUPS 16(R10), X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	MOVUPS X0, (R10)
	MOVUPS X1, 16(R10)
	ADDQ   $32, SI
	ADDQ   $32, R10
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    eight

four:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X0
	MOVUPS (R10), X2
	ADDPS  X2, X0
	MOVUPS X0, (R10)
	ADDQ   $16, SI
	ADDQ   $16, R10
	SUBQ   $4, CX

tail:
	TESTQ CX, CX
	JEQ   next

scalar:
	MOVSS (SI), X0
	MOVSS (R10), X2
	ADDSS X2, X0
	MOVSS X0, (R10)
	ADDQ  $4, SI
	ADDQ  $4, R10
	DECQ  CX
	JNE   scalar

next:
	ADDQ R9, DI
	DECQ R8
	JNE  row
	RET
