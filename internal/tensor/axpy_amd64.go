//go:build !purego

package tensor

// hasAVX2 reports whether the CPU and the OS support AVX2 (axpy_amd64.s).
func hasAVX2() bool

// axpyAVX2 is axpy in AVX2 assembly (axpy_amd64.s); len(y) >= len(x).
//
//go:noescape
func axpyAVX2(y, x []float32, a float32)
