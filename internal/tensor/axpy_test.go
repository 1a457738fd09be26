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

// axpyNCase is one call of axpyN: y's seed, the rows x draws from (stride
// xstride), the optional row index, and the coefficients (stride cstride).
type axpyNCase struct {
	y, x     []float32
	xstride  int
	idx      []int32
	coef     []float32
	cstride  int
	n        int
	skipZero bool
}

// scalar is the definition axpyN is held to: for each element in turn, the
// terms join in ascending p, product and sum rounded separately (the
// float32 conversions stop the compiler from fusing them).
func (c axpyNCase) scalar() []float32 {
	out := append([]float32(nil), c.y...)
	for p := 0; p < c.n; p++ {
		a := c.coef[p*c.cstride]
		if c.skipZero && a == 0 {
			continue
		}
		r := p
		if c.idx != nil {
			r = int(c.idx[p])
		}
		for j := range out {
			out[j] += float32(a * c.x[r*c.xstride+j])
		}
	}
	return out
}

// run returns what axpyN leaves in a copy of y on the chosen path, with
// three guard elements after it that must come back untouched.
func (c axpyNCase) run(t testing.TB, avx2 bool) []float32 {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	buf := append(append([]float32(nil), c.y...), 7, 8, 9)
	axpyN(buf[:len(c.y):len(c.y)], c.x, c.xstride, c.idx, c.coef, c.cstride, c.n, c.skipZero)
	if buf[len(c.y)] != 7 || buf[len(c.y)+1] != 8 || buf[len(c.y)+2] != 9 {
		t.Fatalf("axpyN (avx2=%v) wrote past y: %v", avx2, buf[len(c.y):])
	}
	return buf[:len(c.y)]
}

// check holds the assembly (where there is one) and the per-term Go loop to
// the scalar definition, bit for bit.
func (c axpyNCase) check(t testing.TB, name string) {
	t.Helper()
	want := c.scalar()
	for _, avx2 := range axpyPaths() {
		got := c.run(t, avx2)
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s avx2=%v element %d: got %#08x, scalar %#08x", name, avx2, j,
					math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// TestAxpyNMatchesScalar sweeps every strip combination (widths), term
// counts around the kernels' k-block, row strides wider than the strip,
// constant, dense and column-strided coefficients, direct and indexed rows
// (repeats, out of order), unaligned slices and edge values, skip on and off.
func TestAxpyNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	pool := make([]float32, 1<<20+8) // coefficients and rows are cut from here
	fillMixed(rng, pool, false)
	cut := func(n int) []float32 {
		off := rng.Intn(len(pool) - n + 1)
		return pool[off : off+n : off+n]
	}
	for _, w := range sweepWidths() {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1024} {
			for trial, cstride := range []int{0, 1, n, 3} {
				c := axpyNCase{xstride: w + trial, cstride: cstride, n: n, skipZero: rng.Intn(2) == 0}
				c.y = append([]float32(nil), cut(w)...)
				rows := n
				if trial%2 == 1 {
					rows = 1 + rng.Intn(9)
					c.idx = randIdx(rng, n, rows)
				}
				c.x = cut(max(rows-1, 0)*c.xstride + w)
				c.coef = cut(max(n-1, 0)*cstride + 1)
				c.check(t, fmt.Sprintf("w=%d n=%d xstride=%d cstride=%d idx=%v skip=%v", w, n, c.xstride, cstride, c.idx != nil, c.skipZero))
			}
		}
	}
}

// TestAxpyNZeroCoefficients pins what the skip flag is for. Skipping a ±0
// coefficient keeps a -0 seed and never looks at the row; not skipping it
// adds ±0·x: +0 onto -0 gives +0, and an Inf or NaN in the row gives NaN.
func TestAxpyNZeroCoefficients(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, w := range []int{1, 4, 8, 13, 16, 32, 45} {
		for _, zero := range []float32{0, negZero} {
			row := make([]float32, w)
			for j := range row {
				row[j] = []float32{1, inf, nan, -inf}[j%4]
			}
			seed := make([]float32, w)
			for j := range seed {
				seed[j] = negZero
			}
			c := axpyNCase{y: seed, x: append(row, row...), xstride: w, coef: []float32{zero, zero}, cstride: 1, n: 2}
			for _, c.skipZero = range []bool{true, false} {
				c.check(t, fmt.Sprintf("w=%d zero=%#08x skip=%v", w, math.Float32bits(zero), c.skipZero))
				got := c.run(t, hasAVX2())
				for j, v := range got {
					switch finite := j%4 == 0; {
					case c.skipZero && math.Float32bits(v) != math.Float32bits(negZero):
						t.Fatalf("w=%d skip on: element %d = %v, want the -0 seed", w, j, v)
					case !c.skipZero && !finite && v == v:
						t.Fatalf("w=%d skip off: element %d = %v, want NaN from 0*%v", w, j, v, row[j])
					case !c.skipZero && finite && math.Float32bits(zero) == 0 && math.Float32bits(v) != 0:
						t.Fatalf("w=%d skip off: element %d = %#08x, want +0 from -0 + +0", w, j, math.Float32bits(v))
					}
				}
			}
		}
	}
}

// TestAxpyNRejectsBadRows: the assembly reads rows through raw pointers, so
// an index outside x, or too few rows for n, must panic as the Go loop's
// slicing does, never read beyond x.
func TestAxpyNRejectsBadRows(t *testing.T) {
	x := make([]float32, 4*8)
	for name, c := range map[string]axpyNCase{
		"index past the last row": {idx: []int32{0, 4}, n: 2},
		"negative index":          {idx: []int32{-1}, n: 1},
		"short index":             {idx: []int32{0}, n: 2},
		"more terms than rows":    {n: 5},
		"short coefficients":      {n: 3, coef: make([]float32, 2)},
	} {
		for _, avx2 := range axpyPaths() {
			t.Run(fmt.Sprintf("%s/avx2=%v", name, avx2), func(t *testing.T) {
				setAVX2(t, avx2)
				if c.coef == nil {
					c.coef = []float32{1, 1, 1, 1, 1}
				}
				defer func() {
					if recover() == nil {
						t.Fatal("axpyN accepted rows outside x")
					}
				}()
				axpyN(make([]float32, 8), x, 8, c.idx, c.coef, 1, c.n, false)
			})
		}
	}
}

// FuzzAxpyN decodes bytes into an axpyN call — width, term count, strides,
// index, skip flag, and values drawn half from the edge-value table — and
// holds the assembly and the Go loop to the scalar definition.
func FuzzAxpyN(f *testing.F) {
	f.Add([]byte{32, 3, 0, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{67, 65, 2, 0, 1, 1, 0x80, 0x81, 0x82, 0x83, 0x8b, 0x8a, 0x89, 0x88})
	f.Add([]byte{16, 9, 5, 2, 1, 0, 0x84, 0x85, 0, 0, 0x80, 0x81, 200, 100, 50})
	f.Add([]byte{1, 255, 0, 3, 0, 1})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A byte with the top bit set picks an edge value, otherwise a
		// small multiple of 1/8 of either sign.
		value := func() float32 {
			b := next()
			if b&0x80 != 0 {
				return specials[int(b&0x7f)%len(specials)]
			}
			return float32(int(b)-64) / 8
		}
		values := func(n int) []float32 {
			out := make([]float32, n)
			for i := range out {
				out[i] = value()
			}
			return out
		}
		w, n := int(next())%80, int(next())
		c := axpyNCase{xstride: w + int(next())%7, cstride: int(next()) % 4, n: n, skipZero: next()&1 == 1}
		if c.xstride == 0 {
			c.xstride = 1
		}
		rows := n
		if next()&1 == 1 {
			rows = 1 + int(next())%6
			c.idx = make([]int32, n)
			for i := range c.idx {
				c.idx[i] = int32(int(next()) % rows)
			}
		}
		c.coef = values(max(n-1, 0)*c.cstride + 1)
		c.y = values(w)
		c.x = values(max(rows-1, 0)*c.xstride + w)
		c.check(t, fmt.Sprintf("w=%d n=%d xstride=%d cstride=%d idx=%v skip=%v", w, n, c.xstride, c.cstride, c.idx, c.skipZero))
	})
}

// BenchmarkAxpyNTrainShapes times the three kernels of a training step that
// are narrow enough for a term's cost to show — the link-prediction
// workload's batch 1024, 100 negatives, dim 32, and a hidden-16 layer — on
// one worker, each as it runs (one axpyN per output row and k-block, the
// sum held in registers) and as the loop of one axpy per term that axpyN
// replaced. Without AVX2 both sides are the same Go loop.
func BenchmarkAxpyNTrainShapes(b *testing.B) {
	const batch, negs, dim, hid = 1024, 100, 32, 16
	rng := rand.New(rand.NewSource(42))
	g := randn(rng, batch, negs) // score gradients
	e := randn(rng, batch, dim)  // encodings
	w := randn(rng, negs, hid)   // a hidden-16 layer's weights
	table := randn(rng, 4000, dim)
	idx := randIdx(rng, negs, table.Rows)
	c := NewCompute(1, nil)
	for _, s := range []struct {
		name    string
		out     *Tensor
		axpyN   func(out *Tensor)
		perTerm func(out *Tensor, i int)
	}{
		// dW = Gᵀ @ E: [negatives x dim], batch-many terms per row.
		{"matmulTA", New(negs, dim),
			func(out *Tensor) { c.MatMulTransposeAInto(out, g, e, false) },
			func(out *Tensor, i int) {
				for p0 := 0; p0 < batch; p0 += blockK {
					axpyTerms(out.Row(i), e.Data[p0*dim:], dim, nil, g.Data[p0*negs+i:], negs, min(blockK, batch-p0), true)
				}
			}},
		// dQ = G @ table[idx]: the backward of fused negative scoring.
		{"matmulGather", New(batch, dim),
			func(out *Tensor) { out.Zero(); c.matMulGatherInto(out, g, table, idx) },
			func(out *Tensor, i int) { axpyTerms(out.Row(i), table.Data, dim, idx, g.Row(i), 1, negs, true) }},
		// H = G @ W with 16 output columns: one 16-wide step per term.
		{"matmulM16", New(batch, hid),
			func(out *Tensor) { c.MatMulInto(out, g, w, false) },
			func(out *Tensor, i int) {
				for p0 := 0; p0 < negs; p0 += blockK {
					axpyTerms(out.Row(i), w.Data[p0*hid:], hid, nil, g.Row(i)[p0:], 1, min(blockK, negs-p0), true)
				}
			}},
	} {
		b.Run(s.name+"/axpyN", func(b *testing.B) {
			for b.Loop() {
				s.axpyN(s.out)
			}
		})
		b.Run(s.name+"/perTerm", func(b *testing.B) {
			for b.Loop() {
				s.out.Zero()
				for i := 0; i < s.out.Rows; i++ {
					s.perTerm(s.out, i)
				}
			}
		})
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
	out["MatMulTransposeA/depth"] = c.MatMulTransposeA(mk(w, 3), deep)
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
	accGD := seedOf(3, 5)
	c.matMulGatherInto(accGD, mk(3, w), table, idxW)
	out["matMulGatherInto/depth"] = accGD

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
			deepTA, deepTB := mk(w, 3), mk(w, 5)
			exactEqual(t, fmt.Sprintf("MatMulTransposeA k=%d", w), c.MatMulTransposeA(deepTA, deepTB), RefMatMulTransposeA(deepTA, deepTB))
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
