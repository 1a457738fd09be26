package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sweepWidths are the vector lengths the both-path tests cover: every
// combination of the assembly's 32-wide, 8-wide and scalar loops.
func sweepWidths() []int {
	var ws []int
	for w := 0; w <= 67; w++ {
		ws = append(ws, w)
	}
	return append(ws, 100, 256)
}

var (
	negZero  = float32(math.Copysign(0, -1))
	denormal = math.Float32frombits(1) // smallest positive subnormal
	finites  = []float32{0, negZero, denormal, -denormal, math.Float32frombits(0x007fffff), 1, -1, 3e-20, -7e19}
	specials = append([]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}, finites...)
)

// fillMixed fills dst with normal draws, every third element on average
// replaced by an edge value: ±0 and subnormals, plus ±Inf and NaN unless
// finite is set.
func fillMixed(rng *rand.Rand, dst []float32, finite bool) {
	pool := specials
	if finite {
		pool = finites
	}
	for i := range dst {
		if rng.Intn(3) == 0 {
			dst[i] = pool[rng.Intn(len(pool))]
		} else {
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

// mixed returns a rows x cols tensor of fillMixed values whose data starts
// off floats into its backing array, so rows are not 32-byte aligned.
func mixed(rng *rand.Rand, rows, cols, off int, finite bool) *Tensor {
	backing := make([]float32, off+rows*cols)
	fillMixed(rng, backing, finite)
	return FromSlice(rows, cols, backing[off:])
}

// TestAxpyAVX2MatchesGoLoop holds the assembly to the Go loop and to the
// plain scalar statement, bit for bit, over every width, unaligned
// sub-slices and edge values, and checks it writes nothing past len(x).
func TestAxpyAVX2MatchesGoLoop(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 assembly on this machine")
	}
	rng := rand.New(rand.NewSource(201))
	for _, w := range sweepWidths() {
		for trial := 0; trial < 24; trial++ {
			ox, oy := trial%4, trial/4%4
			x := make([]float32, ox+w)
			y := make([]float32, oy+w+3)
			fillMixed(rng, x, false)
			fillMixed(rng, y, false)
			a := specials[trial%len(specials)]
			if trial >= len(specials) {
				a = float32(rng.NormFloat64())
			}
			want, viaGo, got := append([]float32(nil), y...), append([]float32(nil), y...), y
			for j, xv := range x[ox:] {
				want[oy+j] += a * xv
			}
			axpyGo(viaGo[oy:], x[ox:], a)
			axpyAVX2(got[oy:], x[ox:], a)
			for j := range want {
				if !sameBits(got[j], want[j]) || !sameBits(viaGo[j], want[j]) {
					t.Fatalf("w=%d ox=%d oy=%d a=%v element %d: avx2 %#08x, go %#08x, scalar %#08x", w, ox, oy, a, j-oy,
						math.Float32bits(got[j]), math.Float32bits(viaGo[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}

// kernelOutputs runs every kernel that sits on axpy once, with w as the
// axpy width (and, for the matmuls, also as the reduction length), on
// unaligned inputs drawn from seed. The result is keyed by kernel name.
func kernelOutputs(c *Compute, seed int64, w int, finite bool) map[string]*Tensor {
	rng := rand.New(rand.NewSource(seed))
	off := 1 + w%3
	mk := func(rows, cols int) *Tensor { return mixed(rng, rows, cols, off, finite) }
	// Seeds of the accumulating kernels hold no -0: the axpy matmuls skip
	// a zero multiplier, which leaves a -0 seed where the references'
	// "-0 + +0" gives +0 — the one input on which they part.
	seedOf := func(rows, cols int) *Tensor {
		t := mk(rows, cols)
		for i, v := range t.Data {
			if v == 0 {
				t.Data[i] = 1
			}
		}
		return t
	}
	out := map[string]*Tensor{}
	wide, deep := mk(5, w), mk(w, 5) // [5 x w] and [w x 5]
	a3 := mk(3, 5)
	out["MatMul/width"] = c.MatMul(a3, wide)
	out["MatMul/depth"] = c.MatMul(mk(3, w), deep)
	acc := seedOf(3, w)
	c.MatMulInto(acc, a3, wide, true)
	out["MatMulInto/acc"] = acc
	out["MatMulTransposeA/width"] = c.MatMulTransposeA(mk(5, 3), wide)
	accTA := seedOf(5, w)
	c.MatMulTransposeAInto(accTA, a3, mk(3, w), true)
	out["MatMulTransposeAInto/acc"] = accTA
	out["MatMulTransposeB/width"] = c.MatMulTransposeB(a3, deep)
	out["MatMulTransposeB/depth"] = c.MatMulTransposeB(mk(3, w), wide)
	accTB := seedOf(3, w)
	c.MatMulTransposeBInto(accTB, a3, deep, true)
	out["MatMulTransposeBInto/acc"] = accTB

	table, tableW := mk(7, 5), mk(7, w)
	idxW, idx6 := randIdx(rng, w, 7), randIdx(rng, 6, 7)
	out["GatherMatMulTB/width"] = c.GatherMatMulTB(a3, table, idxW)
	out["GatherMatMulTB/depth"] = c.GatherMatMulTB(mk(3, w), tableW, idx6)
	for _, kind := range quantKinds {
		// Quantized tables come from finite values, as ingest produces.
		q, qW := Quantize(mixed(rng, 7, 5, off, true), kind), Quantize(mixed(rng, 7, w, off, true), kind)
		out[fmt.Sprintf("GatherMatMulTBDequant/%s/width", kind)] = c.GatherMatMulTBDequant(a3, q, idxW)
		out[fmt.Sprintf("GatherMatMulTBDequant/%s/depth", kind)] = c.GatherMatMulTBDequant(mk(3, w), qW, idx6)
	}
	accG := seedOf(3, w)
	c.matMulGatherInto(accG, mk(3, 6), tableW, idx6)
	out["matMulGatherInto"] = accG

	offs := []int32{0, 0, 2, 5}
	out["GatherSegmentSum"] = c.GatherSegmentSum(tableW, idx6, offs)
	out["SegmentSum"] = c.SegmentSum(tableW, offs)
	dst := mk(7, w)
	ScatterAdd(dst, mk(6, w), idx6)
	out["ScatterAdd"] = dst
	return out
}

// TestKernelsBitIdenticalOnBothPaths runs every axpy-backed kernel with the
// assembly on and forced off and demands the same bits, over all sweep
// widths, on inputs with ±0, subnormals, ±Inf and NaN.
func TestKernelsBitIdenticalOnBothPaths(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 assembly on this machine: the Go loop is the only path")
	}
	for name, c := range contexts() {
		t.Run(name, func(t *testing.T) {
			for _, w := range sweepWidths() {
				for _, finite := range []bool{true, false} {
					setAVX2(t, false)
					want := kernelOutputs(c, int64(w), w, finite)
					setAVX2(t, true)
					got := kernelOutputs(c, int64(w), w, finite)
					for k, wt := range want {
						exactEqual(t, fmt.Sprintf("%s w=%d finite=%v", k, w, finite), got[k], wt)
					}
				}
			}
		})
	}
}

// TestKernelsMatchReferencesOnEdgeValues holds both paths to the naive
// references on finite inputs that include ±0 and subnormals, at every
// sweep width. (The random-shape conformance tests draw plain normals.)
func TestKernelsMatchReferencesOnEdgeValues(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(202))
		for _, w := range sweepWidths() {
			mk := func(rows, cols int) *Tensor { return mixed(rng, rows, cols, 1+w%3, true) }
			a, b := mk(3, 5), mk(5, w)
			exactEqual(t, fmt.Sprintf("MatMul w=%d", w), c.MatMul(a, b), RefMatMul(a, b))
			ta := mk(5, 3)
			exactEqual(t, fmt.Sprintf("MatMulTransposeA w=%d", w), c.MatMulTransposeA(ta, b), RefMatMulTransposeA(ta, b))
			bt := mk(w, 5)
			exactEqual(t, fmt.Sprintf("MatMulTransposeB w=%d", w), c.MatMulTransposeB(a, bt), RefMatMulTransposeB(a, bt))
			deepA, deepB := mk(3, w), mk(4, w)
			exactEqual(t, fmt.Sprintf("MatMulTransposeB k=%d", w), c.MatMulTransposeB(deepA, deepB), RefMatMulTransposeB(deepA, deepB))

			table, idx := mk(7, 5), randIdx(rng, w, 7)
			exactEqual(t, fmt.Sprintf("GatherMatMulTB w=%d", w), c.GatherMatMulTB(a, table, idx), RefGatherMatMulTB(a, table, idx))
			for _, kind := range quantKinds {
				q := Quantize(table, kind)
				exactEqual(t, fmt.Sprintf("GatherMatMulTBDequant/%s w=%d", kind, w),
					c.GatherMatMulTBDequant(a, q, idx), RefGatherMatMulTBDequant(a, q, idx))
			}

			tableW, idx6 := mk(7, w), randIdx(rng, 6, 7)
			g := mk(3, 6)
			got, want := New(3, w), New(3, w)
			c.matMulGatherInto(got, g, tableW, idx6)
			refMatMulSeeded(want, g, RefGather(tableW, idx6))
			exactEqual(t, fmt.Sprintf("matMulGatherInto w=%d", w), got, want)

			offs := []int32{0, 0, 2, 5}
			exactEqual(t, fmt.Sprintf("GatherSegmentSum w=%d", w),
				c.GatherSegmentSum(tableW, idx6, offs), RefGatherSegmentSum(tableW, idx6, offs))
			exactEqual(t, fmt.Sprintf("SegmentSum w=%d", w), c.SegmentSum(tableW, offs), RefSegmentSum(tableW, offs))
		}
	})
}
