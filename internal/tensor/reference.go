package tensor

import "math"

// Naive reference kernels, retained on purpose: the conformance tests check
// every parallel, blocked, and fused kernel against these on randomized
// shapes, and the benchmark's tensor.matmul_gflops_w1/wN probes report the
// real kernels' throughput so their speed stays measured rather than
// assumed.
//
// Each reference accumulates in the same element order as its optimized
// counterpart (ascending reduction index), so conformance can demand exact
// equality, not epsilon closeness.

// RefMatMul is the textbook ijp triple loop with strided element access.
func RefMatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("tensor: RefMatMul shape mismatch")
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// RefMatMulTransposeA computes aᵀ @ b naively.
func RefMatMulTransposeA(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic("tensor: RefMatMulTransposeA shape mismatch")
	}
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Rows; p++ {
				s += a.At(p, i) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// RefMatMulTransposeB computes a @ bᵀ naively.
func RefMatMulTransposeB(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic("tensor: RefMatMulTransposeB shape mismatch")
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// RefGather selects rows one element at a time.
func RefGather(a *Tensor, idx []int32) *Tensor {
	out := New(len(idx), a.Cols)
	for i, id := range idx {
		for j := 0; j < a.Cols; j++ {
			out.Set(i, j, a.At(int(id), j))
		}
	}
	return out
}

// RefSegmentSum sums segments row by row.
func RefSegmentSum(a *Tensor, offsets []int32) *Tensor {
	ns := checkOffsets(offsets, a.Rows)
	out := New(ns, a.Cols)
	for s := 0; s < ns; s++ {
		end := segmentEnd(offsets, s, a.Rows)
		for r := int(offsets[s]); r < end; r++ {
			for j := 0; j < a.Cols; j++ {
				out.Set(s, j, out.At(s, j)+a.At(r, j))
			}
		}
	}
	return out
}

// RefSegmentMean averages segments via RefSegmentSum.
func RefSegmentMean(a *Tensor, offsets []int32) *Tensor {
	out := RefSegmentSum(a, offsets)
	scaleSegmentMean(out, offsets, a.Rows)
	return out
}

// RefGatherSegmentSum is the unfused composition the fused kernel replaces.
func RefGatherSegmentSum(a *Tensor, idx []int32, offsets []int32) *Tensor {
	return RefSegmentSum(RefGather(a, idx), offsets)
}

// RefGatherSegmentMean is the unfused composition the fused kernel replaces.
func RefGatherSegmentMean(a *Tensor, idx []int32, offsets []int32) *Tensor {
	return RefSegmentMean(RefGather(a, idx), offsets)
}

// RefGatherMatMulTB is the unfused composition the fused kernel replaces.
func RefGatherMatMulTB(a, table *Tensor, idx []int32) *Tensor {
	return RefMatMulTransposeB(a, RefGather(table, idx))
}

// RefRowSoftmax is each row's softmax with one math.Exp call per element:
// exponentials of the elements less the row's maximum, summed in float64 in
// ascending order, scaled by the float32 reciprocal of the sum.
func RefRowSoftmax(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		refSoftmax(out.Row(i), a.Row(i))
	}
	return out
}

// RefSegmentSoftmax is RefRowSoftmax over each non-empty segment of the
// column vector a.
func RefSegmentSoftmax(a *Tensor, offsets []int32) *Tensor {
	out := New(a.Rows, 1)
	for s := range checkOffsets(offsets, a.Rows) {
		if start, end := int(offsets[s]), segmentEnd(offsets, s, a.Rows); start < end {
			refSoftmax(out.Data[start:end], a.Data[start:end])
		}
	}
	return out
}

func refSoftmax(o, a []float32) {
	m := a[0]
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	var sum float64
	for j, v := range a {
		e := math.Exp(float64(v - m))
		o[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range o {
		o[j] *= inv
	}
}

// RefDequant is the unfused full-table dequantization, one element
// function call per element: the scalar definition the kernels' vector
// path is held to.
func RefDequant(q *QTable) *Tensor {
	out := New(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		for j := range out.Row(i) {
			e := i*q.Cols + j
			if q.Kind == QuantF16 {
				out.Data[e] = deqF16(q.Raw[2*e:])
			} else {
				out.Data[e] = deqI8(q.Raw[e], q.Scale[i], q.Zero[i])
			}
		}
	}
	return out
}

// RefGatherDequant is the unfused composition the fused kernel replaces.
func RefGatherDequant(q *QTable, idx []int32) *Tensor {
	return RefGather(RefDequant(q), idx)
}

// RefGatherMatMulTBDequant is the unfused composition the fused kernel
// replaces.
func RefGatherMatMulTBDequant(a *Tensor, q *QTable, idx []int32) *Tensor {
	return RefMatMulTransposeB(a, RefGather(RefDequant(q), idx))
}
