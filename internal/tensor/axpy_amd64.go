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
