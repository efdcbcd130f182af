// Peak-rate loop for machine.peak_mulps_gflops: seven independent MULPS
// chains and seven independent ADDPS chains per iteration, the same two
// instructions the packed GEMM micro-kernel is made of. Fourteen chains
// cover the 4-cycle latency of both units, so the loop runs at the issue
// rate of the multiply and add ports; nothing touches memory.

#include "textflag.h"

// func peakMulAdd(iters int)
TEXT ·peakMulAdd(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX

	MOVL   $0x3f800000, AX // 1.0f
	MOVQ   AX, X14
	SHUFPS $0x00, X14, X14
	XORPS  X15, X15

	MOVAPS X14, X0
	MOVAPS X14, X1
	MOVAPS X14, X2
	MOVAPS X14, X3
	MOVAPS X14, X4
	MOVAPS X14, X5
	MOVAPS X14, X6
	XORPS  X7, X7
	XORPS  X8, X8
	XORPS  X9, X9
	XORPS  X10, X10
	XORPS  X11, X11
	XORPS  X12, X12
	XORPS  X13, X13

loop:
	MULPS X14, X0
	ADDPS X15, X7
	MULPS X14, X1
	ADDPS X15, X8
	MULPS X14, X2
	ADDPS X15, X9
	MULPS X14, X3
	ADDPS X15, X10
	MULPS X14, X4
	ADDPS X15, X11
	MULPS X14, X5
	ADDPS X15, X12
	MULPS X14, X6
	ADDPS X15, X13
	DECQ  CX
	JNZ   loop
	RET
