//go:build !amd64 || purego

package tensor

// Without the assembly, axpy and axpyN always take their Go loops.
func hasAVX2() bool { return false }

func axpyAVX2(y, x []float32, a float32) { panic("tensor: axpyAVX2 without assembly") }

func axpyNAVX2(y *float32, w int, x *float32, xstride, last int, idx *int32, coef *float32, cstride, n int, skip bool) bool {
	panic("tensor: axpyNAVX2 without assembly")
}
