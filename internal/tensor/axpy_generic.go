//go:build !amd64 || purego

package tensor

// Without the assembly, axpy always takes its Go loop.
func hasAVX2() bool { return false }

func axpyAVX2(y, x []float32, a float32) { panic("tensor: axpyAVX2 without assembly") }
