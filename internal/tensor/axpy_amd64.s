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

// The p-loop of one axpyNAVX2 strip, the same at every strip width. TERM
// opens it. The coefficient's bits doubled are zero exactly for ±0; R12 is 0
// when such a term is skipped and 1 when it is not, which makes the sum
// nonzero. Then Y0 takes the coefficient in every lane and AX the address of
// this strip's slice of row p, or of row idx[p]; a row that begins more than
// last bytes into x (a negative index included) ends the call. NEXT closes
// the loop: the coefficient pointer and p advance, n times in all.
#define TERM(loop, direct, next) \
	XORQ         BX, BX; \
	MOVQ         R9, R13; \
loop: \
	MOVL         (R13), AX; \
	ADDL         AX, AX; \
	ADDL         R12, AX; \
	JZ           next; \
	MOVQ         BX, AX; \
	TESTQ        R8, R8; \
	JZ           direct; \
	MOVLQSX      (R8)(BX*4), AX; \
direct: \
	IMULQ        DX, AX; \
	CMPQ         AX, R14; \
	JHI          bad; \
	ADDQ         SI, AX; \
	VBROADCASTSS (R13), Y0

#define NEXT(loop, next) \
next: \
	ADDQ R10, R13; \
	INCQ BX; \
	CMPQ BX, R11; \
	JB   loop

// func axpyNAVX2(y *float32, w int, x *float32, xstride, last int, idx *int32, coef *float32, cstride, n int, skip bool) bool
//
// y[j] += Σ_{p<n} coef[p*cstride] * x[row(p)*xstride+j] for j < w, where
// row(p) is p, or idx[p] when idx is not nil; n > 0, and skip leaves out
// the terms whose coefficient is ±0. It returns false, with y partly
// updated, when a row begins after byte last of x; the caller has checked
// every other bound.
//
// y is cut into strips of 32, 16, 8, 4 and 1 elements. A strip is loaded
// into registers once, takes all n terms there, and is stored once. The
// lane rule of axpyAVX2 holds unchanged: one lane owns one element, the
// terms join it in ascending p, and VMULPS and VADDPS round the product and
// the sum separately (never a fused multiply-add). Keeping the running sum
// in a register instead of storing and reloading it between terms cannot
// change it: a float32 is the same value in a lane and in memory.
TEXT ·axpyNAVX2(SB), NOSPLIT, $0-81
	MOVQ    y+0(FP), DI
	MOVQ    w+8(FP), CX
	MOVQ    x+16(FP), SI
	MOVQ    xstride+24(FP), DX
	SHLQ    $2, DX
	MOVQ    last+32(FP), R14
	MOVQ    idx+40(FP), R8
	MOVQ    coef+48(FP), R9
	MOVQ    cstride+56(FP), R10
	SHLQ    $2, R10
	MOVQ    n+64(FP), R11
	MOVBLZX skip+72(FP), R12
	XORL    $1, R12
strip32:
	CMPQ    CX, $32
	JB      strip16
	VMOVUPS 0(DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	TERM(loop32, direct32, next32)
	VMULPS  0(AX), Y0, Y5
	VMULPS  32(AX), Y0, Y6
	VMULPS  64(AX), Y0, Y7
	VMULPS  96(AX), Y0, Y8
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VADDPS  Y8, Y4, Y4
	NEXT(loop32, next32)
	VMOVUPS Y1, 0(DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     strip32
strip16:
	CMPQ    CX, $16
	JB      strip8
	VMOVUPS 0(DI), Y1
	VMOVUPS 32(DI), Y2
	TERM(loop16, direct16, next16)
	VMULPS  0(AX), Y0, Y5
	VMULPS  32(AX), Y0, Y6
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	NEXT(loop16, next16)
	VMOVUPS Y1, 0(DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $16, CX
strip8:
	CMPQ    CX, $8
	JB      strip4
	VMOVUPS (DI), Y1
	TERM(loop8, direct8, next8)
	VMULPS  (AX), Y0, Y5
	VADDPS  Y5, Y1, Y1
	NEXT(loop8, next8)
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
strip4:
	CMPQ    CX, $4
	JB      strip1
	VMOVUPS (DI), X1
	TERM(loop4, direct4, next4)
	VMULPS  (AX), X0, X5
	VADDPS  X5, X1, X1
	NEXT(loop4, next4)
	VMOVUPS X1, (DI)
	ADDQ    $16, DI
	ADDQ    $16, SI
	SUBQ    $4, CX
strip1:
	TESTQ   CX, CX
	JE      done
	VMOVSS  (DI), X1
	TERM(loop1, direct1, next1)
	VMULSS  (AX), X0, X5
	VADDSS  X5, X1, X1
	NEXT(loop1, next1)
	VMOVSS  X1, (DI)
	ADDQ    $4, DI
	ADDQ    $4, SI
	DECQ    CX
	JMP     strip1
done:
	VZEROUPPER
	MOVB    $1, ret+80(FP)
	RET
bad:
	VZEROUPPER
	MOVB    $0, ret+80(FP)
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

// func hasF16C() bool
//
// CPUID.1:ECX bit 29: the CPU has VCVTPH2PS. Like every VEX instruction it
// also needs what hasAVX2 checks, so it is used only where both hold.
TEXT ·hasF16C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $29, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
