package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// posNegResult is what one link-prediction loss leaves behind: the loss,
// both gradients and the batch MRR.
type posNegResult struct {
	loss       float32
	gpos, gneg *Tensor
	mrr        float64
}

// runPosNeg records the loss of pos [n x 1] against neg [n x N] on a fresh
// arena-backed tape with the given workers, fused (PosNegCE) or as its
// definition (SoftmaxCrossEntropy of ConcatCols(pos, neg), every label 0,
// and the MRR by refMRR), and runs the backward. With prior, pos and neg
// also feed a second term recorded after the loss, so their gradients
// already hold values when the loss's backward adds onto them.
func runPosNeg(pos, neg *Tensor, workers int, fused, prior bool) posNegResult {
	tp := NewTapeWith(NewCompute(workers, NewArena()))
	pn, nn := tp.Leaf(pos, true), tp.Leaf(neg, true)
	var r posNegResult
	var ce *Node
	if fused {
		ce = tp.PosNegCE(pn, nn, &r.mrr)
	} else {
		ce, r.mrr = tp.SoftmaxCrossEntropy(tp.ConcatCols(pn, nn), make([]int32, pos.Rows)), refMRR(pos, neg)
	}
	root := ce
	if prior {
		root = tp.Add(ce, tp.Add(tp.MeanAll(tp.Tanh(pn)), tp.MeanAll(tp.Tanh(nn))))
	}
	tp.Backward(root)
	r.loss, r.gpos, r.gneg = ce.Value.Data[0], pn.Grad().Clone(), nn.Grad().Clone()
	return r
}

// refMRR is the realistic rank's batch MRR, one row at a time: rank 1,
// plus 1 per greater negative and ½ per tie.
func refMRR(pos, neg *Tensor) float64 {
	if pos.Rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < pos.Rows; i++ {
		p, rank := pos.Data[i], 1.0
		for _, s := range neg.Row(i) {
			if s > p {
				rank++
			} else if s == p {
				rank += 0.5
			}
		}
		sum += 1 / rank
	}
	return sum / float64(pos.Rows)
}

// posNegMismatch describes the first way the fused result, run with every
// raw allocation poisoned, differs from the definition's, bit for bit; ""
// when it does not.
func posNegMismatch(pos, neg *Tensor, workers int, prior bool) string {
	var got posNegResult
	poisoned(func() { got = runPosNeg(pos, neg, workers, true, prior) })
	want := runPosNeg(pos, neg, workers, false, prior)
	if !sameBits(got.loss, want.loss) {
		return fmt.Sprintf("loss %v (%#x), want %v (%#x)", got.loss, math.Float32bits(got.loss), want.loss, math.Float32bits(want.loss))
	}
	if got.mrr != want.mrr {
		return fmt.Sprintf("mrr %v, want %v", got.mrr, want.mrr)
	}
	for _, g := range []struct {
		name      string
		got, want *Tensor
	}{{"pos", got.gpos, want.gpos}, {"neg", got.gneg, want.gneg}} {
		for i := range g.want.Data {
			if !sameBits(g.got.Data[i], g.want.Data[i]) {
				return fmt.Sprintf("%s gradient [%d] %v, want %v", g.name, i, g.got.Data[i], g.want.Data[i])
			}
		}
	}
	return ""
}

// TestPosNegCEMatchesConcatSoftmaxCE holds the fused link-prediction loss
// to its definition bit for bit — loss, both gradients, MRR — on both exp
// and axpy paths, at 1 and 4 workers (the larger shapes fan out forward and
// backward), with and without gradients already on pos and neg.
func TestPosNegCEMatchesConcatSoftmaxCE(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	cases := map[string][2]*Tensor{
		"n1N1":  {randn(rng, 1, 1), randn(rng, 1, 1)},
		"n1":    {randn(rng, 1, 1), randn(rng, 1, 37)},
		"N1":    {randn(rng, 29, 1), randn(rng, 29, 1)},
		"batch": {randn(rng, 200, 1), randn(rng, 200, 101)},
		"mixed": {mixed(rng, 64, 1, 1, false), mixed(rng, 64, 70, 3, false)},
	}
	// Ties with the positive: one row all ties, the others a few each.
	pos, neg := randn(rng, 40, 1), randn(rng, 40, 23)
	for i := 0; i < pos.Rows; i++ {
		for j := range neg.Row(i) {
			if i == 0 || rng.Intn(4) == 0 {
				neg.Set(i, j, pos.Data[i])
			}
		}
	}
	cases["ties"] = [2]*Tensor{pos, neg}
	// A positive far below its negatives underflows to the 1e-12 clamp; one
	// far above them takes every negative's probability to zero.
	pos, neg = randn(rng, 6, 1), randn(rng, 6, 9)
	pos.Data[1], pos.Data[4] = -1000, 800
	cases["underflow"] = [2]*Tensor{pos, neg}

	for _, avx2 := range axpyPaths() {
		for name, c := range cases {
			for _, workers := range []int{1, 4} {
				for _, prior := range []bool{false, true} {
					t.Run(fmt.Sprintf("avx2=%v/%s/workers%d/prior=%v", avx2, name, workers, prior), func(t *testing.T) {
						setAVX2(t, avx2)
						if m := posNegMismatch(c[0], c[1], workers, prior); m != "" {
							t.Fatal(m)
						}
					})
				}
			}
		}
	}
}

func TestGradPosNegCE(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	checkGrads(t, "posnegce", []*Tensor{randn(rng, 5, 1), randn(rng, 5, 4)}, func(tp *Tape, n []*Node) *Node {
		return tp.PosNegCE(n[0], n[1], nil)
	})
}

// FuzzPosNegCE turns bytes into a batch — rows, negatives per row, then
// each score — and demands PosNegCE's loss, gradients and MRR equal the
// concatenated SoftmaxCrossEntropy's bit for bit on every path this
// machine has. A score byte with the top bit set is an edge value (the exp
// branch points, ±0, subnormals, ±Inf, NaN), a negative's byte in
// 0x40–0x7f repeats its row's positive (a tie), and any other byte's low
// six bits are a multiple of 1/4 in [-8, 8). An even count of negatives
// puts gradients on pos and neg before the loss's backward adds to them.
func FuzzPosNegCE(f *testing.F) {
	f.Add([]byte{1, 1, 3, 5})
	f.Add([]byte{3, 4, 10, 0x40, 0x41, 9, 2, 60, 0x80, 0x85, 0x8e, 1, 33, 0x42, 17, 5, 0x90, 0x91})
	f.Add([]byte{2, 9, 0x86, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x87, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40})
	f.Add([]byte{20, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n, negs := int(next())%24+1, int(next())%80+1
		pos, neg := New(n, 1), New(n, negs)
		for i := 0; i < n; i++ {
			for j := -1; j < negs; j++ {
				var v float32
				switch b := next(); {
				case b&0x80 != 0:
					v = expEdges[int(b&0x7f)%len(expEdges)]
				case b >= 0x40 && j >= 0:
					v = pos.Data[i]
				default:
					v = float32(int(b&0x3f)-32) / 4
				}
				if j < 0 {
					pos.Data[i] = v
				} else {
					neg.Set(i, j, v)
				}
			}
		}
		for _, avx2 := range axpyPaths() {
			setAVX2(t, avx2)
			if m := posNegMismatch(pos, neg, 1, negs%2 == 0); m != "" {
				t.Fatalf("avx2=%v, %dx%d: %s", avx2, n, negs, m)
			}
		}
	})
}
