//go:build !amd64 || purego

package tensor

// Without the assembly, axpy, axpyN, expRow and dequantRow always take their
// Go loops.
func hasAVX2() bool { return false }

func hasF16C() bool { return false }

func axpyAVX2(y, x []float32, a float32) { panic("tensor: axpyAVX2 without assembly") }

func axpyNAVX2(y *float32, w int, x *float32, xstride, last int, idx *int32, coef *float32, cstride, n int, skip bool) bool {
	panic("tensor: axpyNAVX2 without assembly")
}

func expRowAVX2(o, a []float32, m float32, sum float64) (int, float64) {
	panic("tensor: expRowAVX2 without assembly")
}

func dequantF16AVX2(dst []float32, raw []byte) { panic("tensor: dequantF16AVX2 without assembly") }

func dequantI8AVX2(dst []float32, raw []byte, scale, zero float32) {
	panic("tensor: dequantI8AVX2 without assembly")
}
