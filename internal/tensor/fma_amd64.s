#include "textflag.h"

// func hasFMA() bool
//
// FMA is usable when the CPU has FMA, AVX and OSXSAVE (CPUID.1:ECX bits 12,
// 28, 27) and the OS saves XMM and YMM state (XCR0 bits 1, 2): the test Go's
// math package makes for math.useFMA. Built under purego too, because that
// tag does not change what math.Exp runs.
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
no:
	RET
