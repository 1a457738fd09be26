package tensor

import (
	"fmt"
	"math"
)

// The kernels in this file come in two forms: methods on *Compute, which
// honor the context's worker cap and arena, and package-level wrappers that
// run on the default context (GOMAXPROCS workers, heap outputs). All of
// them preserve floating-point summation order exactly — see the Compute
// doc — so a kernel's result is bitwise independent of the worker count,
// the arena, the blocking and the SIMD path, and matches the naive
// references in reference.go.
//
// The inner loop of the matmuls, the fused scoring kernels and the segment
// sums is one primitive, axpy (y[j] += a*x[j]), in AVX2 assembly where the
// CPU has it. The lane rule that keeps it bit-identical to the Go loop: no
// lane splits a reduction — a lane owns one output element for the whole
// sum — and the multiply and the add are rounded separately. FMA is
// forbidden: it rounds a*x+y once, which changes low bits against the
// scalar loop and would make checkpoints depend on the machine's path.
//
// An output row that takes many terms takes them through axpyN, which is n
// axpys onto one y with the loop over the terms moved into the assembly: a
// strip of y is loaded into registers once, every term is multiplied and
// added there, and the strip is stored once, where a loop of axpy calls
// pays a call, a load and a store of y per term. The lane rule is untouched
// — same lane per element, terms in ascending p, product and sum rounded
// separately, zero coefficients skipped exactly where the kernel skipped
// them before — so where the running sum lives between two terms is the
// only thing that changed, and a float32 is the same value in a register as
// in memory. Single-term axpy remains for the scatters, whose every term
// lands on a different row.
//
// The softmaxes' exponentials are the third primitive, expRow, and the one
// place FMA appears: its assembly runs math.Exp's own instruction sequence
// four lanes at a time, and on amd64 math.Exp uses FMA exactly when the CPU
// has it (Go's math.useFMA), so the assembly runs only where math.Exp
// fuses as well and the two agree bit for bit. The kernels' own products
// and sums never fuse.
//
// Every read of a quantized table goes through dequantRow (quant.go), eight
// elements per instruction: fp16 by F16C's exact VCVTPH2PS, int8 widened,
// converted, then multiplied and added under the lane rule above. Rows
// shorter than eight elements, and their tails, take the element functions.
//
// Each kernel's loop body lives in a named range function; the serial path
// calls it directly so that single-worker execution — the deterministic
// training path and the arena's zero-allocation contract — creates no
// closure and touches the heap not at all. Only a multi-goroutine launch
// pays the small closure allocation for the fan-out.

// blockK is the k-dimension tile of the blocked matmuls: blockK rows of b
// are streamed repeatedly across a goroutine's row range so they stay
// cache resident, and one axpyN call covers one output row's terms within a
// tile. Tiling over k does not reorder sums — for every output element the
// p-index still ascends monotonically across tiles.
const blockK = 64

// MatMul returns a @ b for a [n x k] and b [k x m].
func MatMul(a, b *Tensor) *Tensor { return (*Compute)(nil).MatMul(a, b) }

// MatMul returns a @ b for a [n x k] and b [k x m].
func (c *Compute) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := c.alloc(a.Rows, b.Cols)
	c.MatMulInto(out, a, b, true) // out is zeroed: folding onto it is a@b
	return out
}

// mulRange computes out[i] += Σ_p A(i,p)·b[p] for i in [start, end), where
// A(i,p) is a.Data[i*ri+p*rp]: a@b with (ri, rp) = (a.Cols, 1), aᵀ@b with
// (1, a.Cols). Each output row takes one axpyN per k-block, so its sum stays
// in registers for the whole block; the coefficients walk along a's row, or
// down its column at stride a.Cols. For every output element the
// accumulation order over p is strictly ascending — blocks ascend, and p
// ascends within a block, whichever loop is outermost — whether out starts
// zeroed or holds a prior value (the accumulate case folds new terms onto
// it in the same order).
func mulRange(out, a, b *Tensor, ri, rp, start, end int) {
	k, m := b.Rows, b.Cols
	for p0 := 0; p0 < k; p0 += blockK {
		n := min(blockK, k-p0)
		for i := start; i < end; i++ {
			axpyN(out.Data[i*m:(i+1)*m], b.Data[p0*m:], m, nil, a.Data[i*ri+p0*rp:], rp, n, true)
		}
	}
}

// mulInto runs mulRange over all of out, zeroed first unless accumulate.
func (c *Compute) mulInto(out, a, b *Tensor, ri, rp int, accumulate bool) {
	n, k, m := out.Rows, b.Rows, b.Cols
	if !accumulate {
		out.Zero()
	}
	if c.serialFor(n, n*k*m) {
		mulRange(out, a, b, ri, rp, 0, n)
		return
	}
	c.fanOut(n, func(s, e int) { mulRange(out, a, b, ri, rp, s, e) })
}

// useAVX2 is decided once at start-up from what the CPU reports, never from
// a setting; tests clear it to run the Go loop on the same machine.
var useAVX2 = hasAVX2()

// HasAVX2 reports whether this machine runs the kernels' AVX2 assembly, so
// that a benchmark report can say which path it measured.
func HasAVX2() bool { return hasAVX2() }

// useFMA is whether math.Exp fuses on this CPU; expRow's assembly runs only
// where it does (and useAVX2 holds).
var useFMA = hasFMA()

// HasFMA reports whether this is an amd64 machine on which math.Exp takes
// its fused multiply-add path (AVX and FMA, Go's math.useFMA). The
// softmaxes' exponentials, and so every loss, round differently without
// it: a test pinned to loss digests captured on such a machine checks this.
func HasFMA() bool { return useFMA }

// useF16C is whether the CPU converts halves; dequantRow's fp16 assembly
// runs only where it does and useAVX2 holds.
var useF16C = hasF16C()

// axpy computes y[j] += a*x[j] for j < len(x): the assembly when the CPU
// has AVX2, else the Go loop. Both round the product, then the sum, one
// element per lane or iteration, so they produce the same bits (see the
// lane rule at the top of this file).
func axpy(y, x []float32, a float32) {
	if useAVX2 {
		axpyAVX2(y[:len(x)], x, a)
		return
	}
	axpyGo(y, x, a)
}

// Axpy is axpy for the other packages: y[j] += a*x[j], j < len(x), on the
// same path and with the same bits as the kernels' own calls.
func Axpy(y, x []float32, a float32) { axpy(y, x, a) }

// one is the coefficient of every term of a plain sum (axpyN's cstride 0).
var one = []float32{1}

// axpyN computes y[j] += Σ_{p<n} coef[p*cstride] * X[row(p)][j] for
// j < len(y), where X[r] is x[r*xstride:] and row(p) is p, or idx[p] when
// idx is not nil; with skip, a term whose coefficient is ±0 is left out, so
// it cannot turn a -0 into +0 or an Inf or NaN row into NaN. It is n axpys
// onto one y, and in assembly the same arithmetic in the same order with y
// held in registers from the first term to the last — see the lane rule at
// the top of this file. The assembly works on raw pointers: y, coef and idx
// are checked here, each row's place in x by the assembly as it gets there.
func axpyN(y, x []float32, xstride int, idx []int32, coef []float32, cstride, n int, skip bool) {
	if !useAVX2 || n <= 0 || len(y) == 0 {
		axpyTerms(y, x, xstride, idx, coef, cstride, n, skip)
		return
	}
	var ip *int32
	if idx != nil {
		ip = &idx[:n][0]
	}
	_ = coef[(n-1)*cstride]
	last := len(x) - len(y) // where the last row that fits begins
	if last < 0 || !axpyNAVX2(&y[0], len(y), &x[0], xstride, 4*last, ip, &coef[0], cstride, n, skip) {
		panic("tensor: axpyN row outside x")
	}
}

// axpyTerms is axpyN one axpy call per term: what runs without the
// assembly, the reference the assembly is tested against, and the loop
// BenchmarkAxpyNTrainShapes times it against.
func axpyTerms(y, x []float32, xstride int, idx []int32, coef []float32, cstride, n int, skip bool) {
	for p := 0; p < n; p++ {
		c := coef[p*cstride]
		if skip && c == 0 {
			continue
		}
		r := p
		if idx != nil {
			r = int(idx[p])
		}
		axpy(y, x[r*xstride:r*xstride+len(y)], c)
	}
}

// axpyGo is axpy on every platform without the assembly, and the reference
// the assembly is tested against. 4-wide unrolling cannot reorder a sum:
// each element is a single term.
func axpyGo(y, x []float32, a float32) {
	j := 0
	for ; j+3 < len(x); j += 4 {
		o := y[j : j+4 : j+4]
		b4 := x[j : j+4 : j+4]
		o[0] += a * b4[0]
		o[1] += a * b4[1]
		o[2] += a * b4[2]
		o[3] += a * b4[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// expRow sets o[j] = float32(e) for e = math.Exp(float64(a[j]-m)), j <
// len(a), and returns the sum of the e, added in float64 in ascending j. The
// assembly computes each e as math.Exp does, four lanes at a time, and adds
// them to the sum one by one in order, so both paths give the same bits. It
// stops at a group of four holding an input math.Exp sends off its main
// path (outside [-708, 709], or NaN); that group, and a tail shorter than
// four, go through math.Exp here.
func expRow(o, a []float32, m float32) float64 { return expRowFrom(o, a, m, 0) }

// expRowFrom is expRow adding the exponentials onto sum instead of zero:
// a row that starts with an element computed apart (PosNegCE's positive)
// continues its sum here in the same order.
func expRowFrom(o, a []float32, m float32, sum float64) float64 {
	o = o[:len(a)]
	for useAVX2 && useFMA {
		var n int
		n, sum = expRowAVX2(o, a, m, sum)
		o, a = o[n:], a[n:]
		if len(a) < 4 {
			break
		}
		sum = expRowGo(o[:4], a[:4], m, sum)
		o, a = o[4:], a[4:]
	}
	return expRowGo(o, a, m, sum)
}

// expRowGo is expRow one math.Exp call per element, continuing sum: what
// runs without the assembly, and the reference it is tested against.
func expRowGo(o, a []float32, m float32, sum float64) float64 {
	for j, v := range a {
		e := math.Exp(float64(v - m))
		o[j] = float32(e)
		sum += e
	}
	return sum
}

// MatMulInto computes out = a@b, or out += a@b when accumulate is true
// (new terms fold onto the existing value in ascending-p order). out must
// be [a.Rows x b.Cols] and must not alias a or b.
func (c *Compute) MatMulInto(out, a, b *Tensor, accumulate bool) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	c.mulInto(out, a, b, a.Cols, 1, accumulate)
}

// MatMulTransposeA returns aᵀ @ b for a [k x n] and b [k x m].
func MatMulTransposeA(a, b *Tensor) *Tensor { return (*Compute)(nil).MatMulTransposeA(a, b) }

// MatMulTransposeA returns aᵀ @ b for a [k x n] and b [k x m].
func (c *Compute) MatMulTransposeA(a, b *Tensor) *Tensor {
	out := c.alloc(a.Cols, b.Cols)
	c.MatMulTransposeAInto(out, a, b, true) // out is zeroed: folding onto it is aᵀ@b
	return out
}

// MatMulTransposeAInto computes out = aᵀ@b (or += with accumulate, new
// terms folding onto the existing value in ascending-p order) for
// a [k x n], b [k x m], out [n x m].
func (c *Compute) MatMulTransposeAInto(out, a, b *Tensor, accumulate bool) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransposeAInto shape mismatch %dx%d, %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	c.mulInto(out, a, b, 1, a.Cols, accumulate)
}

// MatMulTransposeB returns a @ bᵀ for a [n x k] and b [m x k].
func MatMulTransposeB(a, b *Tensor) *Tensor { return (*Compute)(nil).MatMulTransposeB(a, b) }

// MatMulTransposeB returns a @ bᵀ for a [n x k] and b [m x k].
func (c *Compute) MatMulTransposeB(a, b *Tensor) *Tensor {
	out := c.allocRaw(a.Rows, b.Rows)
	c.MatMulTransposeBInto(out, a, b, false)
	return out
}

// tbSource names the rows B[j] on the right of an a@Bᵀ product: row j of
// table, row idx[j] of table when idx is set (the fused gather), or the
// dequantized row of q in place of table (the fused dequantizing gather).
type tbSource struct {
	table *Tensor
	q     *QTable
	idx   []int32
}

// row returns B[j], dequantized into buf when the source is quantized.
func (s tbSource) row(j int, buf []float32) []float32 {
	if s.idx != nil {
		j = int(s.idx[j])
	}
	if s.q != nil {
		s.q.DequantRowInto(j, buf)
		return buf
	}
	k := s.table.Cols
	return s.table.Data[j*k : j*k+k]
}

// panelFloats caps the transposed panel at 32 KiB, so it stays in the L1
// cache while every row of a streams across it.
const panelFloats = 1 << 13

// tbBlock returns how many of w output columns one panel holds for inner
// dimension k: a multiple of 8 that fits panelFloats, at least 8.
func tbBlock(k, w int) int {
	return min(max(panelFloats/max(k, 1)&^7, 8), w)
}

// tbScratch is the working memory tbRange needs for w output columns: the
// panel, one row of sums, and one dequantized row.
func tbScratch(k, w int) int { return (k+1)*tbBlock(k, w) + k }

// tbRange computes out[i][j] = ⟨a[i], B[j]⟩ for i in [i0, i1), j in
// [j0, j1), or adds it to out with accumulate. A dot product is a
// horizontal reduction, which axpy must not split across lanes; so the
// rows B[j] are packed, a block of columns at a time, into a transposed
// [k x block] panel — each B[j] fetched (and dequantized) once — and every
// output row becomes Σ_p a[i][p]·panel[p]: k axpys in which lane j owns
// element j. Each element is still one zero-seeded ascending-p sum, and
// with accumulate that complete sum joins out in a single addition.
func tbRange(out, a *Tensor, src tbSource, accumulate bool, scratch []float32, i0, i1, j0, j1 int) {
	k, m := a.Cols, out.Cols
	jb := tbBlock(k, j1-j0)
	panel, sums, buf := scratch[:k*jb], scratch[k*jb:(k+1)*jb], scratch[(k+1)*jb:][:k]
	for ; j0 < j1; j0 += jb {
		w := min(jb, j1-j0)
		for j := 0; j < w; j++ {
			for p, v := range src.row(j0+j, buf) {
				panel[p*jb+j] = v
			}
		}
		for i := i0; i < i1; i++ {
			orow := out.Data[i*m+j0 : i*m+j0+w]
			dst := orow
			if accumulate {
				dst = sums[:w]
			}
			clear(dst)
			axpyN(dst, panel, jb, nil, a.Data[i*k:(i+1)*k], 1, k, false)
			if accumulate {
				axpy(orow, dst, 1)
			}
		}
	}
}

// mulTB runs tbRange over all of out, split along whichever output axis is
// longer: rows for a training batch against its negatives, columns for a
// few queries against every node (so each looked-up row is still packed
// once). Scratch comes from the arena when there is one, taken before the
// fan-out because an arena serves one goroutine.
func (c *Compute) mulTB(out, a *Tensor, src tbSource, accumulate bool) {
	n, k, m := a.Rows, a.Cols, out.Cols
	byCols := m > n
	span := max(n, m)
	if c.serialFor(span, n*k*m) {
		tbRange(out, a, src, accumulate, c.scratch(tbScratch(k, m)), 0, n, 0, m)
		return
	}
	chunk, parts := c.split(span)
	width := m // output columns one range covers
	if byCols {
		width = chunk
	}
	per := tbScratch(k, width)
	scratch := c.scratch(parts * per)
	c.fanOut(span, func(s, e int) {
		buf := scratch[s/chunk*per:][:per]
		if byCols {
			tbRange(out, a, src, accumulate, buf, 0, n, s, e)
		} else {
			tbRange(out, a, src, accumulate, buf, s, e, 0, m)
		}
	})
}

// MatMulTransposeBInto computes out = a@bᵀ for a [n x k], b [m x k],
// out [n x m]. With accumulate, each element's complete dot product is
// added to the existing value in a single addition.
func (c *Compute) MatMulTransposeBInto(out, a, b *Tensor, accumulate bool) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransposeBInto shape mismatch %dx%d, %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	c.mulTB(out, a, tbSource{table: b}, accumulate)
}

// Gather returns the rows of a selected by idx, in order. This is the
// dense index_select kernel used by DENSE's repr_map (paper Algorithm 3,
// line 1).
func Gather(a *Tensor, idx []int32) *Tensor { return (*Compute)(nil).Gather(a, idx) }

func gatherRange(out, a *Tensor, idx []int32, start, end int) {
	cl := a.Cols
	for i := start; i < end; i++ {
		id := int(idx[i])
		copy(out.Data[i*cl:(i+1)*cl], a.Data[id*cl:id*cl+cl])
	}
}

// Gather returns the rows of a selected by idx, in order.
func (c *Compute) Gather(a *Tensor, idx []int32) *Tensor {
	out := c.allocRaw(len(idx), a.Cols)
	if c.serialFor(len(idx), len(idx)*a.Cols) {
		gatherRange(out, a, idx, 0, len(idx))
		return out
	}
	c.fanOut(len(idx), func(s, e int) { gatherRange(out, a, idx, s, e) })
	return out
}

// ScatterAdd accumulates each row of src into row idx[i] of dst. It is
// single-threaded by design: duplicate indices make per-edge scatter an
// inherently serialized reduction (the sparse-kernel property the paper
// contrasts DENSE against; only the per-layer test reference uses it).
func ScatterAdd(dst, src *Tensor, idx []int32) {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		panic("tensor: ScatterAdd shape mismatch")
	}
	c := dst.Cols
	for i, id := range idx {
		axpy(dst.Data[int(id)*c:int(id)*c+c], src.Data[i*c:(i+1)*c], 1)
	}
}

// GatherMatMulTB returns the fused gather+matmul used for embedding
// lookups: for a [n x k] and table [N x k], the result [n x len(idx)] has
// out[i][j] = ⟨a[i], table[idx[j]]⟩. It is MatMulTransposeB(a,
// Gather(table, idx)) without materializing the gathered matrix — the
// kernel the DistMult decoder uses to score a batch against shared
// negatives.
func GatherMatMulTB(a, table *Tensor, idx []int32) *Tensor {
	return (*Compute)(nil).GatherMatMulTB(a, table, idx)
}

// GatherMatMulTB computes out[i][j] = ⟨a[i], table[idx[j]]⟩ fused.
func (c *Compute) GatherMatMulTB(a, table *Tensor, idx []int32) *Tensor {
	if a.Cols != table.Cols {
		panic(fmt.Sprintf("tensor: GatherMatMulTB width mismatch %d vs %d", a.Cols, table.Cols))
	}
	out := c.allocRaw(a.Rows, len(idx))
	c.mulTB(out, a, tbSource{table: table, idx: idx}, false)
	return out
}

func matMulGatherRange(out, g, table *Tensor, idx []int32, start, end int) {
	m, k := len(idx), table.Cols
	for i := start; i < end; i++ {
		axpyN(out.Data[i*k:(i+1)*k], table.Data, k, idx, g.Data[i*m:(i+1)*m], 1, m, true)
	}
}

// matMulGatherInto accumulates out[i] += Σ_j g[i][j] · table[idx[j]] — the
// gradient of GatherMatMulTB with respect to a, again without
// materializing the gathered matrix. out is [n x k], g [n x len(idx)],
// table [N x k].
func (c *Compute) matMulGatherInto(out, g, table *Tensor, idx []int32) {
	n, m, k := g.Rows, len(idx), table.Cols
	if out.Rows != n || out.Cols != k || g.Cols != m {
		panic("tensor: matMulGatherInto shape mismatch")
	}
	if c.serialFor(n, n*k*m) {
		matMulGatherRange(out, g, table, idx, 0, n)
		return
	}
	c.fanOut(n, func(s, e int) { matMulGatherRange(out, g, table, idx, s, e) })
}

// GatherSegmentSum fuses Gather + SegmentSum (paper Algorithm 3, lines
// 1-2): out[s] = Σ_{r in segment s} a[idx[r]], never materializing the
// [len(idx) x cols] gathered matrix — the largest intermediate of a GNN
// forward pass. offsets follow the SegmentSum convention over len(idx)
// rows.
func GatherSegmentSum(a *Tensor, idx []int32, offsets []int32) *Tensor {
	return (*Compute)(nil).GatherSegmentSum(a, idx, offsets)
}

// segmentSumRange computes out[s] = Σ_{r in segment s} a[idx[r]] for s in
// [lo, hi), or Σ a[r] when idx is nil, over n rows in all: per segment one
// axpyN whose every coefficient is 1.
func segmentSumRange(out, a *Tensor, idx, offsets []int32, n, lo, hi int) {
	cl := a.Cols
	for s := lo; s < hi; s++ {
		r0, r1 := int(offsets[s]), segmentEnd(offsets, s, n)
		if idx != nil {
			axpyN(out.Data[s*cl:(s+1)*cl], a.Data, cl, idx[r0:r1], one, 0, r1-r0, false)
		} else {
			axpyN(out.Data[s*cl:(s+1)*cl], a.Data[r0*cl:], cl, nil, one, 0, r1-r0, false)
		}
	}
}

// segmentSum is SegmentSum over the n rows of a that idx selects, or over
// a's own n rows when idx is nil.
func (c *Compute) segmentSum(a *Tensor, idx, offsets []int32, n int) *Tensor {
	ns := checkOffsets(offsets, n)
	out := c.alloc(ns, a.Cols)
	if c.serialFor(ns, n*a.Cols) {
		segmentSumRange(out, a, idx, offsets, n, 0, ns)
		return out
	}
	c.fanOut(ns, func(lo, hi int) { segmentSumRange(out, a, idx, offsets, n, lo, hi) })
	return out
}

// GatherSegmentSum fuses Gather + SegmentSum; see the package function.
func (c *Compute) GatherSegmentSum(a *Tensor, idx []int32, offsets []int32) *Tensor {
	return c.segmentSum(a, idx, offsets, len(idx))
}

// GatherSegmentMean fuses Gather + SegmentMean; empty segments yield a
// zero row.
func GatherSegmentMean(a *Tensor, idx []int32, offsets []int32) *Tensor {
	return (*Compute)(nil).GatherSegmentMean(a, idx, offsets)
}

// GatherSegmentMean fuses Gather + SegmentMean; see the package function.
func (c *Compute) GatherSegmentMean(a *Tensor, idx []int32, offsets []int32) *Tensor {
	out := c.GatherSegmentSum(a, idx, offsets)
	scaleSegmentMean(out, offsets, len(idx))
	return out
}

// scaleSegmentMean divides each summed segment row by its row count,
// matching SegmentMean's arithmetic exactly.
func scaleSegmentMean(out *Tensor, offsets []int32, n int) {
	for s := 0; s < out.Rows; s++ {
		cnt := segmentEnd(offsets, s, n) - int(offsets[s])
		if cnt > 1 {
			inv := 1 / float32(cnt)
			orow := out.Row(s)
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
}

// checkOffsets validates a segment offsets array against n total rows and
// returns the number of segments. offsets[s] is the start row of segment s;
// segment s spans [offsets[s], offsets[s+1]) with the final segment ending
// at n. Offsets must be non-decreasing and start at 0.
func checkOffsets(offsets []int32, n int) int {
	if len(offsets) == 0 {
		if n != 0 {
			panic("tensor: empty offsets for non-empty input")
		}
		return 0
	}
	if offsets[0] != 0 {
		panic("tensor: offsets must start at 0")
	}
	for s := 1; s < len(offsets); s++ {
		if offsets[s] < offsets[s-1] {
			panic("tensor: offsets must be non-decreasing")
		}
	}
	if int(offsets[len(offsets)-1]) > n {
		panic(fmt.Sprintf("tensor: offsets end %d exceeds rows %d", offsets[len(offsets)-1], n))
	}
	return len(offsets)
}

// segmentEnd returns the exclusive end row of segment s.
func segmentEnd(offsets []int32, s, n int) int {
	if s+1 < len(offsets) {
		return int(offsets[s+1])
	}
	return n
}

// SegmentSum sums contiguous row segments of a. The result has one row per
// segment. This is the dense segment_sum of paper Algorithm 3, line 2.
func SegmentSum(a *Tensor, offsets []int32) *Tensor { return (*Compute)(nil).SegmentSum(a, offsets) }

// SegmentSum sums contiguous row segments of a.
func (c *Compute) SegmentSum(a *Tensor, offsets []int32) *Tensor {
	return c.segmentSum(a, nil, offsets, a.Rows)
}

// SegmentMean averages contiguous row segments of a; empty segments yield a
// zero row.
func SegmentMean(a *Tensor, offsets []int32) *Tensor { return (*Compute)(nil).SegmentMean(a, offsets) }

// SegmentMean averages contiguous row segments of a.
func (c *Compute) SegmentMean(a *Tensor, offsets []int32) *Tensor {
	out := c.SegmentSum(a, offsets)
	scaleSegmentMean(out, offsets, a.Rows)
	return out
}

// SegmentSoftmax applies a numerically-stable softmax within each contiguous
// row segment of a column vector a [n x 1]. Used for GAT attention weights.
func SegmentSoftmax(a *Tensor, offsets []int32) *Tensor {
	return (*Compute)(nil).SegmentSoftmax(a, offsets)
}

func segmentSoftmaxRange(out, a *Tensor, offsets []int32, lo, hi int) {
	for s := lo; s < hi; s++ {
		start, end := int(offsets[s]), segmentEnd(offsets, s, a.Rows)
		if start < end {
			softmaxRow(out.Data[start:end], a.Data[start:end])
		}
	}
}

// SegmentSoftmax applies a per-segment softmax; segments are independent,
// so they split across goroutines.
func (c *Compute) SegmentSoftmax(a *Tensor, offsets []int32) *Tensor {
	if a.Cols != 1 {
		panic("tensor: SegmentSoftmax expects a column vector")
	}
	ns := checkOffsets(offsets, a.Rows)
	out := c.alloc(a.Rows, 1)
	if c.serialFor(ns, a.Rows*8) {
		segmentSoftmaxRange(out, a, offsets, 0, ns)
		return out
	}
	c.fanOut(ns, func(lo, hi int) { segmentSoftmaxRange(out, a, offsets, lo, hi) })
	return out
}

// RowSoftmax applies a numerically-stable softmax along each row of a.
func RowSoftmax(a *Tensor) *Tensor { return (*Compute)(nil).RowSoftmax(a) }

func rowSoftmaxRange(out, a *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(out.Row(i), a.Row(i))
	}
}

// softmaxRow writes the softmax of a, which is not empty, into o: the
// exponentials of a's elements less its maximum, summed in float64, each
// then scaled by the sum's float32 reciprocal.
func softmaxRow(o, a []float32) {
	o = o[:len(a)]
	m := a[0]
	for _, v := range a[1:] {
		if v > m {
			m = v
		}
	}
	inv := float32(1 / expRow(o, a, m))
	for j := range o {
		o[j] *= inv
	}
}

// RowSoftmax applies a softmax along each row; rows split across
// goroutines.
func (c *Compute) RowSoftmax(a *Tensor) *Tensor {
	out := c.allocRaw(a.Rows, a.Cols)
	if c.serialFor(a.Rows, a.Rows*a.Cols*8) {
		rowSoftmaxRange(out, a, 0, a.Rows)
		return out
	}
	c.fanOut(a.Rows, func(lo, hi int) { rowSoftmaxRange(out, a, lo, hi) })
	return out
}
