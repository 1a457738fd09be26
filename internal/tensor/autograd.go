package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Node is a value in an autodiff computation graph recorded on a Tape.
type Node struct {
	// Value holds the forward result.
	Value *Tensor

	grad         *Tensor
	requiresGrad bool
	backward     func(grad *Tensor)
	tape         *Tape
}

// Grad returns the accumulated gradient of the node after Tape.Backward,
// or nil if no gradient flowed to it.
func (n *Node) Grad() *Tensor { return n.grad }

// Tape records operations for reverse-mode differentiation. A Tape is not
// safe for concurrent use; each training worker owns its own tape.
//
// A tape built with NewTapeWith runs every kernel on the given Compute
// context: kernels fan out to at most its worker count, and every tensor
// the tape produces — op outputs and gradients — is drawn from its Arena
// when one is attached. Arena-backed tapes follow the arena's ownership
// rules: all values and gradients are invalidated by Arena.Reset, so a
// training step must consume them (optimizer updates, metrics, write-back)
// before resetting. Tape.Reset additionally recycles the tape's node
// bookkeeping, so the steady-state Reset/record cycle reuses memory
// instead of growing it.
type Tape struct {
	c     *Compute
	nodes []*Node
	free  []*Node
}

// NewTape returns an empty tape on the default compute context
// (GOMAXPROCS workers, heap-allocated tensors).
func NewTape() *Tape { return &Tape{} }

// NewTapeWith returns an empty tape that runs kernels on c.
func NewTapeWith(c *Compute) *Tape { return &Tape{c: c} }

// Reset discards all recorded nodes so the tape can be reused. Node
// structs are pooled and reused by subsequent records. Reset does NOT
// reset an attached arena — the caller owns that ordering (reset the tape
// first, then the arena).
func (tp *Tape) Reset() {
	for _, n := range tp.nodes {
		*n = Node{}
	}
	tp.free = append(tp.free, tp.nodes...)
	tp.nodes = tp.nodes[:0]
}

// Len returns the number of recorded nodes.
func (tp *Tape) Len() int { return len(tp.nodes) }

// Alloc returns a zeroed rows x cols tensor on the tape's compute context
// (arena-owned when the context has an arena). Layers use it for
// constant-valued per-batch buffers that should recycle with the batch.
func (tp *Tape) Alloc(rows, cols int) *Tensor { return tp.c.alloc(rows, cols) }

func (tp *Tape) newNode() *Node {
	if k := len(tp.free); k > 0 {
		n := tp.free[k-1]
		tp.free = tp.free[:k-1]
		return n
	}
	return &Node{}
}

// Leaf registers t as an input node. If requiresGrad is true, gradients
// with respect to t accumulate in Grad() during Backward.
func (tp *Tape) Leaf(t *Tensor, requiresGrad bool) *Node {
	n := tp.newNode()
	n.Value, n.requiresGrad, n.tape = t, requiresGrad, tp
	tp.nodes = append(tp.nodes, n)
	return n
}

// Constant registers t as an input that never needs gradients.
func (tp *Tape) Constant(t *Tensor) *Node { return tp.Leaf(t, false) }

func (tp *Tape) record(value *Tensor, requiresGrad bool, backward func(grad *Tensor)) *Node {
	n := tp.newNode()
	n.Value, n.requiresGrad, n.tape = value, requiresGrad, tp
	if requiresGrad {
		n.backward = backward
	}
	tp.nodes = append(tp.nodes, n)
	return n
}

// ensureGrad returns n's gradient buffer, allocating it zeroed on first
// use so backward passes can accumulate into it in place.
func (n *Node) ensureGrad() *Tensor {
	if n.grad == nil {
		n.grad = n.tape.c.alloc(n.Value.Rows, n.Value.Cols)
	}
	return n.grad
}

// accumulate adds g into n's gradient buffer.
func (n *Node) accumulate(g *Tensor) {
	if !n.requiresGrad {
		return
	}
	n.ensureGrad().AddInPlace(g)
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1x1) node, seeding its gradient with 1.
func (tp *Tape) Backward(root *Node) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward root must be scalar, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	if root.tape != tp {
		panic("tensor: Backward root recorded on a different tape")
	}
	seed := tp.c.alloc(1, 1)
	seed.Data[0] = 1
	root.accumulate(seed)
	// Nodes were appended in topological order, so a reverse sweep visits
	// every node after all of its consumers.
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.backward != nil && n.grad != nil {
			n.backward(n.grad)
		}
	}
}

// MatMul records a @ b. Both backward products accumulate directly into
// the operands' gradient buffers (no temporaries).
func (tp *Tape) MatMul(a, b *Node) *Node {
	out := tp.c.MatMul(a.Value, b.Value)
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			tp.c.MatMulTransposeBInto(a.ensureGrad(), g, b.Value, true)
		}
		if b.requiresGrad {
			tp.c.MatMulTransposeAInto(b.ensureGrad(), a.Value, g, true)
		}
	})
}

// Add records the element-wise sum a + b (same shape).
func (tp *Tape) Add(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic("tensor: Add shape mismatch")
	}
	out := tp.c.clone(a.Value)
	out.AddInPlace(b.Value)
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			a.accumulate(g)
		}
		if b.requiresGrad {
			b.accumulate(g)
		}
	})
}

// Sub records a - b (same shape).
func (tp *Tape) Sub(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic("tensor: Sub shape mismatch")
	}
	out := tp.c.clone(a.Value)
	for i, v := range b.Value.Data {
		out.Data[i] -= v
	}
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			a.accumulate(g)
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			for i, v := range g.Data {
				gb.Data[i] -= v
			}
		}
	})
}

// Mul records the element-wise (Hadamard) product a * b (same shape).
func (tp *Tape) Mul(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic("tensor: Mul shape mismatch")
	}
	out := tp.c.clone(a.Value)
	for i, v := range b.Value.Data {
		out.Data[i] *= v
	}
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, v := range b.Value.Data {
				ga.Data[i] += g.Data[i] * v
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			for i, v := range a.Value.Data {
				gb.Data[i] += g.Data[i] * v
			}
		}
	})
}

// Scale records a * s for scalar s.
func (tp *Tape) Scale(a *Node, s float32) *Node {
	out := tp.c.clone(a.Value)
	out.ScaleInPlace(s)
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, v := range g.Data {
			ga.Data[i] += v * s
		}
	})
}

// AddBias records a + b where b is a [1 x m] row vector broadcast over the
// rows of a [n x m].
func (tp *Tape) AddBias(a, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != a.Value.Cols {
		panic("tensor: AddBias expects bias [1 x cols(a)]")
	}
	out := tp.c.clone(a.Value)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j, v := range b.Value.Data {
			row[j] += v
		}
	}
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			a.accumulate(g)
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				row := g.Row(i)
				for j, v := range row {
					gb.Data[j] += v
				}
			}
		}
	})
}

// ReLU records max(a, 0).
func (tp *Tape) ReLU(a *Node) *Node {
	out := tp.c.clone(a.Value)
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, v := range a.Value.Data {
			if v > 0 {
				ga.Data[i] += g.Data[i]
			}
		}
	})
}

// LeakyReLU records max(a, alpha*a) for 0 < alpha < 1.
func (tp *Tape) LeakyReLU(a *Node, alpha float32) *Node {
	out := tp.c.clone(a.Value)
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = v * alpha
		}
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, v := range a.Value.Data {
			if v < 0 {
				ga.Data[i] += g.Data[i] * alpha
			} else {
				ga.Data[i] += g.Data[i]
			}
		}
	})
}

// Sigmoid records 1 / (1 + exp(-a)).
func (tp *Tape) Sigmoid(a *Node) *Node {
	out := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, y := range out.Data {
			ga.Data[i] += g.Data[i] * y * (1 - y)
		}
	})
}

// Tanh records tanh(a).
func (tp *Tape) Tanh(a *Node) *Node {
	out := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, y := range out.Data {
			ga.Data[i] += g.Data[i] * (1 - y*y)
		}
	})
}

// Gather records row selection a[idx]. The backward pass scatter-adds the
// output gradient directly into the source node's gradient buffer, which
// is how gradients reach the base-representation table (paper §3, step 6).
func (tp *Tape) Gather(a *Node, idx []int32) *Node {
	out := tp.c.Gather(a.Value, idx)
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ScatterAdd(a.ensureGrad(), g, idx)
	})
}

// SliceRows records the row slice a[start:end].
func (tp *Tape) SliceRows(a *Node, start, end int) *Node {
	if start < 0 || end > a.Value.Rows || start > end {
		panic(fmt.Sprintf("tensor: SliceRows [%d:%d] of %d rows", start, end, a.Value.Rows))
	}
	cols := a.Value.Cols
	out := tp.c.allocRaw(end-start, cols)
	copy(out.Data, a.Value.Data[start*cols:end*cols])
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		dst := ga.Data[start*cols : end*cols]
		for i, v := range g.Data {
			dst[i] += v
		}
	})
}

// ConcatRows records vertical concatenation [a; b].
func (tp *Tape) ConcatRows(a, b *Node) *Node {
	if a.Value.Cols != b.Value.Cols {
		panic("tensor: ConcatRows column mismatch")
	}
	out := tp.c.alloc(a.Value.Rows+b.Value.Rows, a.Value.Cols)
	copy(out.Data, a.Value.Data)
	copy(out.Data[len(a.Value.Data):], b.Value.Data)
	req := a.requiresGrad || b.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := range ga.Data {
				ga.Data[i] += g.Data[i]
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			off := len(a.Value.Data)
			for i := range gb.Data {
				gb.Data[i] += g.Data[off+i]
			}
		}
	})
}

// ConcatCols records horizontal concatenation [a | b].
func (tp *Tape) ConcatCols(a, b *Node) *Node {
	if a.Value.Rows != b.Value.Rows {
		panic("tensor: ConcatCols row mismatch")
	}
	ac, bc := a.Value.Cols, b.Value.Cols
	out := tp.c.allocRaw(a.Value.Rows, ac+bc)
	for i := 0; i < out.Rows; i++ {
		copy(out.Row(i)[:ac], a.Value.Row(i))
		copy(out.Row(i)[ac:], b.Value.Row(i))
	}
	req := a.requiresGrad || b.requiresGrad
	// Each half of g's row adds onto its input's gradient row as an axpy by
	// 1, whose product 1·v is exactly v.
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				axpy(ga.Row(i), g.Row(i)[:ac], 1)
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				axpy(gb.Row(i), g.Row(i)[ac:], 1)
			}
		}
	})
}

// SegmentSum records per-segment row sums (paper Algorithm 3, line 2).
func (tp *Tape) SegmentSum(a *Node, offsets []int32) *Node {
	out := tp.c.SegmentSum(a.Value, offsets)
	n := a.Value.Rows
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for s := 0; s < g.Rows; s++ {
			grow := g.Row(s)
			end := segmentEnd(offsets, s, n)
			for r := int(offsets[s]); r < end; r++ {
				garow := ga.Row(r)
				for j, v := range grow {
					garow[j] += v
				}
			}
		}
	})
}

// SegmentMean records per-segment row means; empty segments yield zeros.
func (tp *Tape) SegmentMean(a *Node, offsets []int32) *Node {
	out := tp.c.SegmentMean(a.Value, offsets)
	n := a.Value.Rows
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for s := 0; s < g.Rows; s++ {
			start, end := int(offsets[s]), segmentEnd(offsets, s, n)
			cnt := end - start
			if cnt == 0 {
				continue
			}
			inv := 1 / float32(cnt)
			grow := g.Row(s)
			for r := start; r < end; r++ {
				garow := ga.Row(r)
				for j, v := range grow {
					garow[j] += v * inv
				}
			}
		}
	})
}

// SegmentSoftmax records a softmax within each contiguous segment of the
// column vector a.
func (tp *Tape) SegmentSoftmax(a *Node, offsets []int32) *Node {
	out := tp.c.SegmentSoftmax(a.Value, offsets)
	n := a.Value.Rows
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for s := 0; s < len(offsets); s++ {
			start, end := int(offsets[s]), segmentEnd(offsets, s, n)
			var dot float64
			for r := start; r < end; r++ {
				dot += float64(g.Data[r]) * float64(out.Data[r])
			}
			for r := start; r < end; r++ {
				ga.Data[r] += out.Data[r] * (g.Data[r] - float32(dot))
			}
		}
	})
}

// MulColBroadcast records a * w where w is an [n x 1] column vector scaling
// each row of a [n x d]. Used to apply attention weights in GAT.
func (tp *Tape) MulColBroadcast(a, w *Node) *Node {
	if w.Value.Cols != 1 || w.Value.Rows != a.Value.Rows {
		panic("tensor: MulColBroadcast expects w [rows(a) x 1]")
	}
	out := tp.c.clone(a.Value)
	for i := 0; i < out.Rows; i++ {
		wi := w.Value.Data[i]
		row := out.Row(i)
		for j := range row {
			row[j] *= wi
		}
	}
	req := a.requiresGrad || w.requiresGrad
	return tp.record(out, req, func(g *Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := 0; i < ga.Rows; i++ {
				wi := w.Value.Data[i]
				garow, grow := ga.Row(i), g.Row(i)
				for j, v := range grow {
					garow[j] += v * wi
				}
			}
		}
		if w.requiresGrad {
			gw := w.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				grow, arow := g.Row(i), a.Value.Row(i)
				var s float32
				for j, v := range grow {
					s += v * arow[j]
				}
				gw.Data[i] += s
			}
		}
	})
}

// RowSum records the per-row sum of a as an [n x 1] column vector.
func (tp *Tape) RowSum(a *Node) *Node {
	out := tp.c.alloc(a.Value.Rows, 1)
	for i := 0; i < a.Value.Rows; i++ {
		var s float32
		for _, v := range a.Value.Row(i) {
			s += v
		}
		out.Data[i] = s
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i := 0; i < ga.Rows; i++ {
			gi := g.Data[i]
			row := ga.Row(i)
			for j := range row {
				row[j] += gi
			}
		}
	})
}

// MeanAll records the scalar mean of all elements of a.
func (tp *Tape) MeanAll(a *Node) *Node {
	out := tp.c.alloc(1, 1)
	out.Data[0] = float32(a.Value.Sum() / float64(len(a.Value.Data)))
	inv := 1 / float32(len(a.Value.Data))
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		gv := g.Data[0] * inv
		for i := range ga.Data {
			ga.Data[i] += gv
		}
	})
}

// Dropout records inverted dropout with drop probability p using rng.
// With p <= 0 it is the identity.
func (tp *Tape) Dropout(a *Node, p float32, rng *rand.Rand) *Node {
	if p <= 0 {
		return a
	}
	if p >= 1 {
		panic("tensor: Dropout probability must be < 1")
	}
	mask := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	scale := 1 / (1 - p)
	out := tp.c.alloc(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		if rng.Float32() >= p {
			mask.Data[i] = scale
			out.Data[i] = v * scale
		}
	}
	return tp.record(out, a.requiresGrad, func(g *Tensor) {
		ga := a.ensureGrad()
		for i, m := range mask.Data {
			ga.Data[i] += g.Data[i] * m
		}
	})
}

// SoftmaxCrossEntropy records mean softmax cross-entropy between logits
// [n x C] and integer class labels (one per row). It returns the scalar
// loss node.
func (tp *Tape) SoftmaxCrossEntropy(logits *Node, labels []int32) *Node {
	n := logits.Value.Rows
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropy %d labels for %d rows", len(labels), n))
	}
	probs := tp.c.RowSoftmax(logits.Value)
	out := tp.c.alloc(1, 1)
	var loss float64
	for i := 0; i < n; i++ {
		loss -= logProb(probs.At(i, int(labels[i])))
	}
	out.Data[0] = float32(loss / float64(n))
	// A gradient row takes p·scale off the label and (p−1)·scale at it: an
	// axpy of the probabilities on each side of the label (scale·p is
	// p·scale) around the one scalar term.
	return tp.record(out, logits.requiresGrad, func(g *Tensor) {
		gl := logits.ensureGrad()
		scale := g.Data[0] / float32(n)
		for i := 0; i < n; i++ {
			grow, prow, lab := gl.Row(i), probs.Row(i), int(labels[i])
			axpy(grow[:lab], prow[:lab], scale)
			grow[lab] += (prow[lab] - 1) * scale
			axpy(grow[lab+1:], prow[lab+1:], scale)
		}
	})
}

// logProb is the cross-entropy's log of a probability, clamped at 1e-12.
func logProb(p float32) float64 {
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(float64(p))
}

// PosNegCE records the mean over rows of −log softmax([pos_i | neg_i])[0]
// for pos [n x 1] and neg [n x N]: the link-prediction loss, with the
// positive's score in front of its row of negative scores. Loss and both
// gradients are SoftmaxCrossEntropy(ConcatCols(pos, neg)) with every label
// 0, bit for bit, without building the concatenated logits or their
// gradient. One pass over each row takes the maximum, the exponentials
// and their float64 sum (pos_i's first, as it leads the concatenated row),
// and scales by the sum's float32 reciprocal; rows split across workers.
//
// When mrr is not nil, the pass that takes the maximum also counts the
// negatives above and equal to pos_i, and *mrr receives the batch MRR of
// the positives under the realistic rank eval.Ranking also uses: rank 1 +
// greater + ½·equal, 1/rank summed in row order, over n. The counts are exact while N < 2^24.
func (tp *Tape) PosNegCE(pos, neg *Node, mrr *float64) *Node {
	n, N := neg.Value.Rows, neg.Value.Cols
	if pos.Value.Rows != n || pos.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: PosNegCE pos [%dx%d] for neg [%dx%d]", pos.Value.Rows, pos.Value.Cols, n, N))
	}
	probs := tp.c.allocRaw(n, N) // the negatives' probabilities
	rows := tp.c.allocRaw(n, 3)  // per row: pos's probability, greater, equal
	rank := mrr != nil
	if tp.c.serialFor(n, n*N*8) {
		posNegRange(probs, rows, pos.Value, neg.Value, rank, 0, n)
	} else {
		tp.c.fanOut(n, func(lo, hi int) { posNegRange(probs, rows, pos.Value, neg.Value, rank, lo, hi) })
	}
	var loss, rr float64
	for i := 0; i < n; i++ {
		r := rows.Row(i)
		loss -= logProb(r[0])
		if rank {
			rr += 1 / (1 + float64(r[1]) + 0.5*float64(r[2]))
		}
	}
	out := tp.c.alloc(1, 1)
	out.Data[0] = float32(loss / float64(n))
	if rank {
		*mrr = rr / max(float64(n), 1) // no rows: 0
	}
	// The concatenated backward wrote 0 + (p−1)·scale and 0 + scale·p into
	// a zeroed gradient, then added those onto pos's and neg's gradients,
	// pos first; adding the terms directly is the same sums.
	return tp.record(out, pos.requiresGrad || neg.requiresGrad, func(g *Tensor) {
		scale := g.Data[0] / float32(n)
		if pos.requiresGrad {
			gp := pos.ensureGrad()
			for i := range gp.Data {
				gp.Data[i] += (rows.Data[3*i] - 1) * scale
			}
		}
		if neg.requiresGrad {
			gn := neg.ensureGrad()
			if tp.c.serialFor(n, n*N) {
				axpyRows(gn, probs, scale, 0, n)
			} else {
				tp.c.fanOut(n, func(lo, hi int) { axpyRows(gn, probs, scale, lo, hi) })
			}
		}
	})
}

// posNegRange is PosNegCE's forward over rows [lo, hi): each row's maximum
// (and, with rank, its counts of negatives above and equal to the
// positive) in one pass, then the exponentials and the scaling.
func posNegRange(probs, rows, pos, neg *Tensor, rank bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, nrow, prow := pos.Data[i], neg.Row(i), probs.Row(i)
		m, greater, equal := p, 0, 0
		if rank {
			for _, v := range nrow {
				if v > m {
					m = v
				}
				greater += one01(v > p)
				equal += one01(v == p)
			}
		} else {
			for _, v := range nrow {
				if v > m {
					m = v
				}
			}
		}
		e0 := math.Exp(float64(p - m))
		inv := float32(1 / expRowFrom(prow, nrow, m, e0))
		for j := range prow {
			prow[j] *= inv
		}
		r := rows.Row(i)
		r[0], r[1], r[2] = float32(e0)*inv, float32(greater), float32(equal)
	}
}

// one01 is 1 for true and 0 for false, which the compiler turns into a
// flag read instead of a branch the counts would mispredict.
func one01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// axpyRows adds a·x's rows [lo, hi) onto y's.
func axpyRows(y, x *Tensor, a float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		axpy(y.Row(i), x.Row(i), a)
	}
}
