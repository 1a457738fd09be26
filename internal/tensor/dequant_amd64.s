//go:build !purego

#include "textflag.h"

// func dequantF16AVX2(dst []float32, raw []byte)
//
// dst[j] = the little-endian binary16 element j of raw, for j < len(dst)
// rounded down to a multiple of 8; the caller guarantees len(raw) >=
// 2*len(dst). VCVTPH2PS widens eight halves at a time, exactly, as
// F16ToF32 widens one; a signalling NaN comes out quiet, as it does from
// F16ToF32, so the two give the same bits on every pattern.
TEXT ·dequantF16AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ raw_base+24(FP), SI
	SHRQ $3, CX
	JZ   done
loop:
	VCVTPH2PS (SI), Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop
done:
	VZEROUPPER
	RET

// func dequantI8AVX2(dst []float32, raw []byte, scale, zero float32)
//
// dst[j] = zero + scale*float32(raw[j]), for j < len(dst) rounded down to a
// multiple of 8; the caller guarantees len(raw) >= len(dst). VPMOVZXBD
// widens eight bytes to integers, which VCVTDQ2PS converts exactly; then
// VMULPS rounds the product and VADDPS the sum, as deqI8's two scalar
// operations do. A fused multiply-add would round once and change low
// bits, so it must never appear here.
TEXT ·dequantI8AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         raw_base+24(FP), SI
	VBROADCASTSS scale+48(FP), Y1
	VBROADCASTSS zero+52(FP), Y2
	SHRQ         $3, CX
	JZ           done
loop:
	VPMOVZXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y1, Y0, Y0
	VADDPS    Y2, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop
done:
	VZEROUPPER
	RET
