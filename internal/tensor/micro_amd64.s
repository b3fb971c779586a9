#include "textflag.h"

// SSE2 GEMM microkernels; see micro_amd64.go for the contract. Each C row
// lives in two XMM accumulators (columns 0-3 and 4-7). Every k step
// broadcasts one A element per row, multiplies it into a copy of the B row
// with MULPS and adds that product to the accumulator with ADDPS, so each
// lane rounds the product and the sum separately, in ascending k.
// Registers R14, R15 and X15 are left alone.

// func sseMicro4x8(c *float32, ldc int, a *float32, lda int, b *float32, kc int)
TEXT ·sseMicro4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ kc+40(FP), CX
	SHLQ $2, R8           // ldc in bytes
	SHLQ $2, R9           // lda in bytes
	LEAQ (DI)(R8*1), R10  // C row 1
	LEAQ (DI)(R8*2), R11  // C row 2
	LEAQ (R10)(R8*2), R12 // C row 3
	LEAQ (SI)(R9*2), R13  // A row 2; rows 1 and 3 are one lda past SI and R13

	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (R10), X2
	MOVUPS 16(R10), X3
	MOVUPS (R11), X4
	MOVUPS 16(R11), X5
	MOVUPS (R12), X6
	MOVUPS 16(R12), X7

loop4:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9

	MOVSS  (SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  (SI)(R9*1), X12
	SHUFPS $0x00, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X2
	ADDPS  X13, X3

	MOVSS  (R13), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5

	MOVSS  (R13)(R9*1), X12
	SHUFPS $0x00, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X6
	ADDPS  X13, X7

	ADDQ $4, SI
	ADDQ $4, R13
	ADDQ $32, DX
	DECQ CX
	JNZ  loop4

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (R10)
	MOVUPS X3, 16(R10)
	MOVUPS X4, (R11)
	MOVUPS X5, 16(R11)
	MOVUPS X6, (R12)
	MOVUPS X7, 16(R12)
	RET

// func sseMicro1x8(c *float32, a *float32, b *float32, kc int)
TEXT ·sseMicro1x8(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kc+24(FP), CX

	MOVUPS (DI), X0
	MOVUPS 16(DI), X1

loop1:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	MOVSS  (SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1
	ADDQ   $4, SI
	ADDQ   $32, DX
	DECQ   CX
	JNZ    loop1

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	RET
