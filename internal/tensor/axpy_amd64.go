//go:build !purego

package tensor

// hasAVX2 reports whether the CPU and the OS support AVX2 (axpy_amd64.s).
func hasAVX2() bool

// axpyAVX2 is axpy in AVX2 assembly (axpy_amd64.s); len(y) >= len(x).
//
//go:noescape
func axpyAVX2(y, x []float32, a float32)

// axpyNAVX2 is axpyN in AVX2 assembly (axpy_amd64.s) for n > 0. It checks
// nothing but idx[p] < rows, reporting false when that fails.
//
//go:noescape
func axpyNAVX2(y *float32, w int, x *float32, xstride, last int, idx *int32, coef *float32, cstride, n int, skip bool) bool

// expRowAVX2 is expRow's vector path in AVX2 and FMA assembly
// (exp_amd64.s): it does whole groups of four up to the first that holds an
// input math.Exp handles off its main path, continuing sum, and returns how
// many elements it did; len(o) >= len(a).
//
//go:noescape
func expRowAVX2(o, a []float32, m float32, sum float64) (n int, s float64)

// hasF16C reports whether the CPU has the half-precision conversions
// (axpy_amd64.s).
func hasF16C() bool

// dequantF16AVX2 is dequantRow's fp16 vector path in F16C assembly
// (dequant_amd64.s): whole groups of eight; len(raw) >= 2*len(dst).
//
//go:noescape
func dequantF16AVX2(dst []float32, raw []byte)

// dequantI8AVX2 is dequantRow's int8 vector path in AVX2 assembly
// (dequant_amd64.s): whole groups of eight; len(raw) >= len(dst).
//
//go:noescape
func dequantI8AVX2(dst []float32, raw []byte, scale, zero float32)
