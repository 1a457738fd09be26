//go:build !purego

#include "textflag.h"

// func axpyAVX2(y, x []float32, a float32)
//
// y[j] += a*x[j] for j < len(x); the caller guarantees len(y) >= len(x).
// One lane owns one element: VMULPS rounds the product, VADDPS rounds the
// sum, exactly as the scalar MULSS/ADDSS pair does. A fused multiply-add
// would round once and change low bits, so it must never appear here.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         y_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS a+48(FP), Y0
	CMPQ         CX, $16
	JB           tail8
loop16:
	VMULPS  0(SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VADDPS  0(DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VMOVUPS Y1, 0(DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JAE     loop16
tail8:
	CMPQ    CX, $8
	JB      tail4
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
tail4:
	CMPQ    CX, $4
	JB      tail1
	VMULPS  (SI), X0, X1
	VADDPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX
tail1:
	TESTQ CX, CX
	JE    done
loop1:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNE    loop1
done:
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// AVX2 is usable when the CPU has AVX and OSXSAVE (CPUID.1:ECX bits 28,
// 27), the OS saves XMM and YMM state (XCR0 bits 1, 2) and CPUID.7:EBX
// bit 5 is set.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET
