package tensor

import "fmt"

// MatMulTB records a @ bᵀ for a [n x k] and b [m x k], producing [n x m].
// Used by the DistMult decoder to score a batch against shared negatives.
func (tp *Tape) MatMulTB(a, b *Node) *Node {
	out := tp.c.MatMulTransposeB(a.Value, b.Value)
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			tp.c.MatMulInto(a.ensureGrad(), g, b.Value, true)
		}
		if b.requiresGrad {
			tp.c.MatMulTransposeAInto(b.ensureGrad(), g, a.Value, true)
		}
	})
}

// GatherMatMulTB records a @ table[idx]ᵀ — the fused gather+matmul used
// for embedding lookups: scoring each row of a against looked-up rows of
// an embedding table without materializing the gathered matrix. The
// gradient to a streams the table rows again (fused), and the gradient to
// the table scatter-adds gᵀ@a into the selected rows.
func (tp *Tape) GatherMatMulTB(a, table *Node, idx []int32) *Node {
	out := tp.c.GatherMatMulTB(a.Value, table.Value, idx)
	req := a.requiresGrad || table.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			tp.c.matMulGatherInto(a.ensureGrad(), g, table.Value, idx)
		}
		if table.requiresGrad {
			gt := tp.c.MatMulTransposeA(g, a.Value) // [len(idx) x k]
			ScatterAdd(table.ensureGrad(), gt, idx)
		}
	})
}

// GatherSegmentSum records the fused Gather + SegmentSum over a's rows
// selected by idx (paper Algorithm 3, lines 1-2, fused). The backward pass
// scatter-adds each segment's gradient row into the gathered source rows.
func (tp *Tape) GatherSegmentSum(a *Node, idx []int32, offsets []int32) *Node {
	out := tp.c.GatherSegmentSum(a.Value, idx, offsets)
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for s := 0; s < g.Rows; s++ {
			grow := g.Row(s)
			end := segmentEnd(offsets, s, len(idx))
			for r := int(offsets[s]); r < end; r++ {
				axpy(ga.Row(int(idx[r])), grow, 1)
			}
		}
	})
}

// GatherSegmentMean records the fused Gather + SegmentMean; empty segments
// yield zeros.
func (tp *Tape) GatherSegmentMean(a *Node, idx []int32, offsets []int32) *Node {
	out := tp.c.GatherSegmentMean(a.Value, idx, offsets)
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for s := 0; s < g.Rows; s++ {
			start, end := int(offsets[s]), segmentEnd(offsets, s, len(idx))
			cnt := end - start
			if cnt == 0 {
				continue
			}
			inv := 1 / float32(cnt)
			grow := g.Row(s)
			for r := start; r < end; r++ {
				axpy(ga.Row(int(idx[r])), grow, inv)
			}
		}
	})
}

// SliceCols records the column slice a[:, start:end]. The ComplEx decoder
// uses it to split embeddings into real and imaginary halves; the gradient
// adds into the sliced column block.
func (tp *Tape) SliceCols(a *Node, start, end int) *Node {
	if start < 0 || end > a.Value.Cols || start > end {
		panic(fmt.Sprintf("tensor: SliceCols [%d:%d] of %d cols", start, end, a.Value.Cols))
	}
	out := tp.c.alloc(a.Value.Rows, end-start)
	for i := 0; i < out.Rows; i++ {
		copy(out.Row(i), a.Value.Row(i)[start:end])
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i := 0; i < g.Rows; i++ {
			garow, grow := ga.Row(i)[start:end], g.Row(i)
			for j, v := range grow {
				garow[j] += v
			}
		}
	})
}

// AddColVec records out[i][j] = a[i][j] + v[i][0] for a [n x m] and the
// column vector v [n x 1]: a per-row bias broadcast across columns. The
// TransE decoder uses it to add the per-query −‖q‖² term to a score block.
// grad_v[i] accumulates g's row i in ascending column order.
func (tp *Tape) AddColVec(a, v *Node) *Node {
	if v.Value.Rows != a.Value.Rows || v.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: AddColVec v [%dx%d] for a [%dx%d]",
			v.Value.Rows, v.Value.Cols, a.Value.Rows, a.Value.Cols))
	}
	out := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	for i := 0; i < out.Rows; i++ {
		orow, arow, b := out.Row(i), a.Value.Row(i), v.Value.Data[i]
		for j, x := range arow {
			orow[j] = x + b
		}
	}
	req := a.requiresGrad || v.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, x := range g.Data {
				ga.Data[i] += x
			}
		}
		if v.requiresGrad {
			gv := v.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				var s float32
				for _, x := range g.Row(i) {
					s += x
				}
				gv.Data[i] += s
			}
		}
	})
}

// AddRowVec records out[i][j] = a[i][j] + v[j][0] for a [n x m] and the
// vector v [m x 1] interpreted as a per-column bias. The TransE decoder
// uses it to add the per-candidate −‖e‖² term (one entry per negative)
// without transposing. grad_v[j] accumulates g's column j in ascending row
// order.
func (tp *Tape) AddRowVec(a, v *Node) *Node {
	if v.Value.Rows != a.Value.Cols || v.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: AddRowVec v [%dx%d] for a [%dx%d]",
			v.Value.Rows, v.Value.Cols, a.Value.Rows, a.Value.Cols))
	}
	out := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	bias := v.Value.Data
	for i := 0; i < out.Rows; i++ {
		orow, arow := out.Row(i), a.Value.Row(i)
		for j, x := range arow {
			orow[j] = x + bias[j]
		}
	}
	req := a.requiresGrad || v.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, x := range g.Data {
				ga.Data[i] += x
			}
		}
		if v.requiresGrad {
			gv := v.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				for j, x := range g.Row(i) {
					gv.Data[j] += x
				}
			}
		}
	})
}

// ScatterAddRows records out[idx[i]] += a[i] for an output with numRows
// rows. It is the COO aggregation kernel used by the DGL/PyG baseline
// execution mode (per-edge scatter instead of DENSE's segment sum).
func (tp *Tape) ScatterAddRows(a *Node, idx []int32, numRows int) *Node {
	if len(idx) != a.Value.Rows {
		panic(fmt.Sprintf("tensor: ScatterAddRows %d indices for %d rows", len(idx), a.Value.Rows))
	}
	out := tp.c.alloc(numRows, a.Value.Cols)
	ScatterAdd(out, a.Value, idx)
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		cols := g.Cols
		for i, id := range idx {
			grow := g.Data[int(id)*cols : int(id)*cols+cols]
			garow := ga.Data[i*cols : (i+1)*cols]
			for j, v := range grow {
				garow[j] += v
			}
		}
	})
}
