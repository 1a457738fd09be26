package tensor

// BenchAxpyTerms and BenchMatMulGather hand cmd/benchkernels the two
// unexported pieces its training-shape rows need: the per-term loop that
// axpyN replaced, to time the kernels against, and the backward of
// GatherMatMulTB, which only the tape reaches.
var BenchAxpyTerms = axpyTerms

func (c *Compute) BenchMatMulGather(out, g, table *Tensor, idx []int32) {
	c.matMulGatherInto(out, g, table, idx)
}

// BenchTrainStep runs the kernel sequence of one steady-state training
// batch — fused embedding gather+aggregate, two linear layers with
// in-place ReLU, the backward matmuls with in-place accumulation, and the
// gradient write-back through the fused gather's backward into the
// caller-owned dh0 buffer. It is the canonical body of the arena's
// zero-allocation contract: TestArenaSteadyStateZeroAllocs asserts it
// performs no heap allocations on a warmed-up serial arena context, and
// cmd/benchkernels measures and CI-gates the exact same sequence. Keep the
// two gates honest by changing the sequence only here.
func BenchTrainStep(c *Compute, h0, w1, w2, dh0 *Tensor, idx, offsets []int32) *Tensor {
	agg := c.GatherSegmentSum(h0, idx, offsets) // [nseg x d]
	z1 := c.MatMul(agg, w1)
	for i, v := range z1.Data { // ReLU in place
		if v < 0 {
			z1.Data[i] = 0
		}
	}
	z2 := c.MatMul(z1, w2)
	// Backward: dz1 = dz2 @ w2ᵀ, dw2 += z1ᵀ @ dz2, dw1 += aggᵀ @ dz1
	// (using z2 as its own seed gradient; the shapes and memory traffic
	// match a real loss gradient).
	dz1 := c.MatMulTransposeB(z2, w2)
	dw2 := c.alloc(w2.Rows, w2.Cols)
	c.MatMulTransposeAInto(dw2, z1, z2, true)
	dw1 := c.alloc(w1.Rows, w1.Cols)
	c.MatMulTransposeAInto(dw1, agg, dz1, true)
	// Write-back: dagg scattered into dh0 through the fused gather+segment
	// op's backward, touching every sampled row.
	dagg := c.MatMulTransposeB(dz1, w1)
	dh0.Zero()
	for s := 0; s < dagg.Rows; s++ {
		grow := dagg.Row(s)
		end := segmentEnd(offsets, s, len(idx))
		for r := int(offsets[s]); r < end; r++ {
			axpy(dh0.Row(int(idx[r])), grow, 1)
		}
	}
	return z2
}
