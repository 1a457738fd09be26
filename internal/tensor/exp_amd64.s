//go:build !purego

#include "textflag.h"

// The constants of math.archExp (math/exp_amd64.s), spelled as it spells
// them so that they round to the same float64s, then the bias of an
// exponent, each in all four lanes of a 32-byte row so that an instruction
// can take it straight from memory; then the float32 bounds of the range
// the vector path takes.
#define C4(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v
C4(0, $1.4426950408889634073599246810018920)                    // LOG2E
C4(32, $0.69314718055966295651160180568695068359375)            // LN2U
C4(64, $0.28235290563031577122588448175013436025525412068e-12)  // LN2L
C4(96, $0.0625)
C4(128, $2.4801587301587301587e-5)
C4(160, $1.9841269841269841270e-4)
C4(192, $1.3888888888888888889e-3)
C4(224, $8.3333333333333333333e-3)
C4(256, $4.1666666666666666667e-2)
C4(288, $1.6666666666666666667e-1)
C4(320, $0.5)
C4(352, $1.0)
C4(384, $2.0)
C4(416, $0x3ff)
DATA expc<>+448(SB)/4, $-708.0
DATA expc<>+452(SB)/4, $709.0
GLOBL expc<>(SB), RODATA, $456

// EXP4 replaces the four float64s in x by their exponentials, every lane
// running the instructions of archExp's FMA path in archExp's order: k =
// round(x·LOG2E); x -= k·LN2U, then k·LN2L, fused; x /= 16; the Taylor
// polynomial as seven FMAs; four squarings (x·(x+2), the last fused with
// +1); and the product with 2^k built from k's bits. k (Y) and i (X) are
// scratch; every constant is a memory operand.
#define EXP4(x, k, i) \
	VMULPD       expc<>+0(SB), x, k; \
	VCVTPD2DQY   k, i; \
	VCVTDQ2PD    i, k; \
	VFNMADD231PD expc<>+32(SB), k, x; \
	VFNMADD231PD expc<>+64(SB), k, x; \
	VMULPD       expc<>+96(SB), x, x; \
	VMOVUPD      expc<>+128(SB), k; \
	VFMADD213PD  expc<>+160(SB), x, k; \
	VFMADD213PD  expc<>+192(SB), x, k; \
	VFMADD213PD  expc<>+224(SB), x, k; \
	VFMADD213PD  expc<>+256(SB), x, k; \
	VFMADD213PD  expc<>+288(SB), x, k; \
	VFMADD213PD  expc<>+320(SB), x, k; \
	VFMADD213PD  expc<>+352(SB), x, k; \
	VMULPD       k, x, x; \
	VADDPD       expc<>+384(SB), x, k; \
	VMULPD       k, x, x; \
	VADDPD       expc<>+384(SB), x, k; \
	VMULPD       k, x, x; \
	VADDPD       expc<>+384(SB), x, k; \
	VMULPD       k, x, x; \
	VADDPD       expc<>+384(SB), x, k; \
	VFMADD213PD  expc<>+352(SB), k, x; \
	VPMOVSXDQ    i, k; \
	VPADDQ       expc<>+416(SB), k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// SUM4 adds the four lanes of y (x is its low half) to the sum in X7, one
// scalar addition each, lowest lane first. X0 is scratch.
#define SUM4(y, x) \
	VADDSD       x, X7, X7; \
	VUNPCKHPD    x, x, X0; \
	VADDSD       X0, X7, X7; \
	VEXTRACTF128 $1, y, X0; \
	VADDSD       X0, X7, X7; \
	VUNPCKHPD    X0, X0, X0; \
	VADDSD       X0, X7, X7

// func expRowAVX2(o, a []float32, m float32, sum float64) (n int, s float64)
//
// For j from 0 in groups of four, o[j] = float32(e) and sum += e, where e
// is math.Exp(float64(a[j]-m)) computed as math.Exp computes it on a CPU
// with FMA; the caller guarantees len(o) >= len(a). It stops before the
// first group with a lane outside [-708, 709] or NaN, which archExp would
// send off its main path (to zero, +Inf, a subnormal or NaN), and before a
// tail of fewer than four, returning how many elements it did and the sum.
//
// VSUBPS and VCVTPS2PD are the float32 subtraction and the exact widening
// Go performs; every other instruction is the packed form of archExp's
// scalar one, which rounds each lane exactly as the scalar rounds, and
// VCVTPD2PSY narrows as float32(e) does. The sum takes the lanes in order,
// one VADDSD each, so nothing is reassociated. Two groups of four run per
// iteration as two independent chains.
TEXT ·expRowAVX2(SB), NOSPLIT, $0-80
	MOVQ         o_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         a_len+32(FP), CX
	VBROADCASTSS m+48(FP), Y15
	VMOVSD       sum+56(FP), X7
	VBROADCASTSS expc<>+448(SB), Y14
	VBROADCASTSS expc<>+452(SB), Y13
	XORQ         BX, BX
loop8:
	LEAQ         8(BX), AX
	CMPQ         AX, CX
	JA           group4
	VMOVUPS      (SI)(BX*4), Y0
	VSUBPS       Y15, Y0, Y0
	VCMPPS       $0x1d, Y14, Y0, Y8 // x >= -708, false for NaN
	VCMPPS       $0x12, Y13, Y0, Y9 // x <= 709, false for NaN
	VANDPS       Y9, Y8, Y8
	VMOVMSKPS    Y8, AX
	CMPL         AX, $0xff
	JNE          group4
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X4
	VCVTPS2PD    X4, Y4
	EXP4(Y1, Y2, X3)
	EXP4(Y4, Y5, X6)
	SUM4(Y1, X1)
	SUM4(Y4, X4)
	VCVTPD2PSY   Y1, X1
	VCVTPD2PSY   Y4, X4
	VMOVUPS      X1, (DI)(BX*4)
	VMOVUPS      X4, 16(DI)(BX*4)
	ADDQ         $8, BX
	JMP          loop8
group4:
	LEAQ         4(BX), AX
	CMPQ         AX, CX
	JA           done
	VMOVUPS      (SI)(BX*4), X0
	VSUBPS       X15, X0, X0
	VCMPPS       $0x1d, X14, X0, X8
	VCMPPS       $0x12, X13, X0, X9
	VANDPS       X9, X8, X8
	VMOVMSKPS    X8, AX
	CMPL         AX, $0xf
	JNE          done
	VCVTPS2PD    X0, Y1
	EXP4(Y1, Y2, X3)
	SUM4(Y1, X1)
	VCVTPD2PSY   Y1, X1
	VMOVUPS      X1, (DI)(BX*4)
	ADDQ         $4, BX
	JMP          loop8
done:
	MOVQ         BX, n+64(FP)
	VMOVSD       X7, s+72(FP)
	VZEROUPPER
	RET
