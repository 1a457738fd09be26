package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates d(loss)/d(x) by central differences, where
// forward rebuilds the graph from the leaf values each call.
func numericalGrad(t *testing.T, x *Tensor, forward func() float64) *Tensor {
	t.Helper()
	const h = 1e-3
	g := New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := forward()
		x.Data[i] = orig - h
		fm := forward()
		x.Data[i] = orig
		g.Data[i] = float32((fp - fm) / (2 * h))
	}
	return g
}

// checkGrads runs backward through build (which must return the scalar
// loss node) and compares every leaf gradient against central differences.
// It also runs it on an arena tape with every raw allocation poisoned: the
// loss and the gradients must not change a bit, or an op read an output
// it had not written.
func checkGrads(t *testing.T, name string, leaves []*Tensor, build func(tp *Tape, nodes []*Node) *Node) {
	t.Helper()
	run := func(tp *Tape) (*Node, []*Node) {
		nodes := make([]*Node, len(leaves))
		for i, l := range leaves {
			nodes[i] = tp.Leaf(l, true)
		}
		loss := build(tp, nodes)
		tp.Backward(loss)
		return loss, nodes
	}
	loss, nodes := run(NewTape())
	var ploss *Node
	var pnodes []*Node
	poisoned(func() { ploss, pnodes = run(NewTapeWith(NewCompute(1, NewArena()))) })
	if !sameBits(ploss.Value.Data[0], loss.Value.Data[0]) {
		t.Fatalf("%s: loss %v with raw allocations poisoned, %v without", name, ploss.Value.Data[0], loss.Value.Data[0])
	}
	for li, n := range nodes {
		exactEqual(t, fmt.Sprintf("%s: leaf %d gradient, poisoned", name, li), pnodes[li].Grad(), n.Grad())
	}

	forward := func() float64 {
		tp2 := NewTape()
		nodes2 := make([]*Node, len(leaves))
		for i, l := range leaves {
			nodes2[i] = tp2.Leaf(l, true)
		}
		return float64(build(tp2, nodes2).Value.Data[0])
	}
	for li, leaf := range leaves {
		got := nodes[li].Grad()
		if got == nil {
			t.Fatalf("%s: leaf %d received no gradient", name, li)
		}
		want := numericalGrad(t, leaf, forward)
		for i := range want.Data {
			diff := math.Abs(float64(got.Data[i] - want.Data[i]))
			scale := math.Max(1, math.Abs(float64(want.Data[i])))
			if diff/scale > 2e-2 {
				t.Errorf("%s: leaf %d grad[%d] = %g, want %g", name, li, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func randn(rng *rand.Rand, rows, cols int) *Tensor {
	x := New(rows, cols)
	x.RandNormal(rng, 1)
	return x
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randn(rng, 3, 4), randn(rng, 4, 2)
	checkGrads(t, "matmul", []*Tensor{a, b}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.MatMul(n[0], n[1]))
	})
}

func TestGradMatMulTB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randn(rng, 3, 4), randn(rng, 5, 4)
	checkGrads(t, "matmulTB", []*Tensor{a, b}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.MatMulTB(n[0], n[1])))
	})
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randn(rng, 4, 3), randn(rng, 4, 3)
	checkGrads(t, "add-sub-mul", []*Tensor{a, b}, func(tp *Tape, n []*Node) *Node {
		x := tp.Mul(tp.Add(n[0], n[1]), tp.Sub(n[0], n[1]))
		return tp.MeanAll(tp.Scale(x, 0.5))
	})
}

func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randn(rng, 5, 3), randn(rng, 1, 3)
	checkGrads(t, "addbias", []*Tensor{a, b}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Sigmoid(tp.AddBias(n[0], n[1])))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randn(rng, 6, 4)
	checkGrads(t, "relu", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.ReLU(n[0]))
	})
	checkGrads(t, "leakyrelu", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.LeakyReLU(n[0], 0.2))
	})
	checkGrads(t, "sigmoid", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Sigmoid(n[0]))
	})
	checkGrads(t, "tanh", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(n[0]))
	})
}

func TestGradGatherSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randn(rng, 5, 3)
	idx := []int32{4, 0, 0, 2, 3, 1}
	checkGrads(t, "gather", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.Gather(n[0], idx)))
	})
	checkGrads(t, "slice", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.SliceRows(n[0], 1, 4))
	})
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randn(rng, 3, 2), randn(rng, 3, 4)
	checkGrads(t, "concatcols", []*Tensor{a, b}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.ConcatCols(n[0], n[1])))
	})
	c, d := randn(rng, 2, 3), randn(rng, 4, 3)
	checkGrads(t, "concatrows", []*Tensor{c, d}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.ConcatRows(n[0], n[1])))
	})
}

func TestGradSegmentOps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randn(rng, 7, 3)
	offsets := []int32{0, 2, 2, 5} // one empty segment
	checkGrads(t, "segmentsum", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.SegmentSum(n[0], offsets)))
	})
	checkGrads(t, "segmentmean", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.SegmentMean(n[0], offsets)))
	})
	v := randn(rng, 7, 1)
	checkGrads(t, "segmentsoftmax", []*Tensor{v}, func(tp *Tape, n []*Node) *Node {
		sm := tp.SegmentSoftmax(n[0], offsets)
		return tp.MeanAll(tp.Mul(sm, sm))
	})
}

func TestGradMulColBroadcastRowSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, w := randn(rng, 5, 3), randn(rng, 5, 1)
	checkGrads(t, "mulcol", []*Tensor{a, w}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.MulColBroadcast(n[0], n[1])))
	})
	checkGrads(t, "rowsum", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.RowSum(n[0])))
	})
}

func TestGradScatterAddRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randn(rng, 6, 3)
	idx := []int32{0, 2, 2, 1, 0, 3}
	checkGrads(t, "scatteradd", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.ScatterAddRows(n[0], idx, 4)))
	})
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := randn(rng, 5, 4)
	labels := []int32{0, 3, 1, 2, 2}
	checkGrads(t, "softmaxce", []*Tensor{logits}, func(tp *Tape, n []*Node) *Node {
		return tp.SoftmaxCrossEntropy(n[0], labels)
	})
}

func TestGradComposite(t *testing.T) {
	// A two-layer MLP with every common op chained, mimicking a real
	// training step's graph shape.
	rng := rand.New(rand.NewSource(12))
	x := randn(rng, 6, 5)
	w1 := randn(rng, 5, 4)
	b1 := randn(rng, 1, 4)
	w2 := randn(rng, 4, 3)
	labels := []int32{0, 1, 2, 0, 1, 2}
	checkGrads(t, "mlp", []*Tensor{x, w1, b1, w2}, func(tp *Tape, n []*Node) *Node {
		h := tp.ReLU(tp.AddBias(tp.MatMul(n[0], n[1]), n[2]))
		return tp.SoftmaxCrossEntropy(tp.MatMul(h, n[3]), labels)
	})
}

func TestGradGatherMatMulTB(t *testing.T) {
	// Gradcheck for the fused gather+matmul op, including a duplicated
	// index (row 4 looked up twice) so the scatter-add accumulation in the
	// table gradient is exercised.
	rng := rand.New(rand.NewSource(13))
	a := randn(rng, 3, 4)
	table := randn(rng, 6, 4)
	idx := []int32{5, 0, 4, 4}
	checkGrads(t, "gathermatmultb", []*Tensor{a, table}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.GatherMatMulTB(n[0], n[1], idx)))
	})
}

func TestGradGatherSegmentOps(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randn(rng, 5, 3)
	idx := []int32{4, 0, 0, 2, 3, 1, 2}
	offsets := []int32{0, 2, 2, 5} // includes an empty segment
	checkGrads(t, "gathersegmentsum", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.GatherSegmentSum(n[0], idx, offsets)))
	})
	checkGrads(t, "gathersegmentmean", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.GatherSegmentMean(n[0], idx, offsets)))
	})
}

func TestFusedOpsMatchUnfusedOnTape(t *testing.T) {
	// The fused tape ops must produce bitwise-identical values AND
	// gradients to their unfused compositions.
	rng := rand.New(rand.NewSource(15))
	h := randn(rng, 6, 4)
	idx := []int32{5, 0, 0, 2, 3, 1, 2, 4}
	offsets := []int32{0, 3, 3, 6}
	q := randn(rng, 3, 4)
	lookup := []int32{1, 4, 4, 0}

	run := func(tp *Tape, fused bool) (*Tensor, *Tensor, *Tensor) {
		hn := tp.Leaf(h.Clone(), true)
		qn := tp.Leaf(q.Clone(), true)
		var agg, scores *Node
		if fused {
			agg = tp.GatherSegmentMean(hn, idx, offsets)
			scores = tp.GatherMatMulTB(qn, hn, lookup)
		} else {
			agg = tp.SegmentMean(tp.Gather(hn, idx), offsets)
			scores = tp.MatMulTB(qn, tp.Gather(hn, lookup))
		}
		loss := tp.Add(tp.MeanAll(tp.Tanh(agg)), tp.MeanAll(tp.Tanh(scores)))
		tp.Backward(loss)
		return loss.Value, hn.Grad(), qn.Grad()
	}
	lu, hu, qu := run(NewTape(), false)
	for _, poison := range []bool{false, true} {
		var lf, hf, qf *Tensor
		if poison {
			poisoned(func() { lf, hf, qf = run(NewTapeWith(NewCompute(1, NewArena())), true) })
		} else {
			lf, hf, qf = run(NewTape(), true)
		}
		if lf.Data[0] != lu.Data[0] {
			t.Fatalf("poison=%v: fused loss %v != unfused %v", poison, lf.Data[0], lu.Data[0])
		}
		if !hf.Equal(hu, 0) || !qf.Equal(qu, 0) {
			t.Fatalf("poison=%v: fused gradients differ from unfused composition", poison)
		}
	}
}

func TestArenaTapeGradientsMatchHeapTape(t *testing.T) {
	// The same graph built on an arena-backed multi-worker tape must yield
	// bitwise-identical values and gradients to the default heap tape.
	rng := rand.New(rand.NewSource(16))
	x := randn(rng, 12, 6)
	w := randn(rng, 6, 5)
	idx := []int32{0, 3, 3, 7, 11, 5}
	labels := []int32{0, 2, 1, 4, 3, 0}

	build := func(tp *Tape) (*Tensor, *Tensor, *Tensor) {
		xn := tp.Leaf(x, true)
		wn := tp.Leaf(w, true)
		h := tp.ReLU(tp.MatMul(xn, wn))
		logits := tp.Gather(h, idx)
		loss := tp.SoftmaxCrossEntropy(logits, labels)
		tp.Backward(loss)
		return loss.Value, xn.Grad(), wn.Grad()
	}
	lh, xh, wh := build(NewTape())
	arena := NewArena()
	tp := NewTapeWith(NewCompute(4, arena))
	// Passes after the first reuse slabs holding the last batch's values;
	// the poisoned ones refill every raw allocation with NaN.
	for pass := 0; pass < 4; pass++ {
		tp.Reset()
		arena.Reset()
		var la, xa, wa *Tensor
		if pass >= 2 {
			poisoned(func() { la, xa, wa = build(tp) })
		} else {
			la, xa, wa = build(tp)
		}
		if la.Data[0] != lh.Data[0] {
			t.Fatalf("pass %d: arena loss %v != heap %v", pass, la.Data[0], lh.Data[0])
		}
		if !xa.Equal(xh, 0) || !wa.Equal(wh, 0) {
			t.Fatalf("pass %d: arena gradients differ from heap gradients", pass)
		}
	}
}

func TestBackwardAccumulatesFanOut(t *testing.T) {
	// A leaf used twice must receive the sum of both paths' gradients.
	x := FromSlice(1, 1, []float32{3})
	tp := NewTape()
	n := tp.Leaf(x, true)
	y := tp.Add(n, n) // dy/dx = 2
	tp.Backward(y)
	if got := n.Grad().Data[0]; math.Abs(float64(got)-2) > 1e-6 {
		t.Fatalf("fan-out gradient = %v, want 2", got)
	}
}

func TestGradSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randn(rng, 4, 6)
	checkGrads(t, "slicecols", []*Tensor{a}, func(tp *Tape, n []*Node) *Node {
		lo := tp.SliceCols(n[0], 0, 3)
		hi := tp.SliceCols(n[0], 3, 6)
		return tp.MeanAll(tp.Mul(lo, hi))
	})
}

func TestGradAddColVec(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a, v := randn(rng, 4, 5), randn(rng, 4, 1)
	checkGrads(t, "addcolvec", []*Tensor{a, v}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.AddColVec(n[0], n[1])))
	})
}

func TestGradAddRowVec(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, v := randn(rng, 4, 5), randn(rng, 5, 1)
	checkGrads(t, "addrowvec", []*Tensor{a, v}, func(tp *Tape, n []*Node) *Node {
		return tp.MeanAll(tp.Tanh(tp.AddRowVec(n[0], n[1])))
	})
}
