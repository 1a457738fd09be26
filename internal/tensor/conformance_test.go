package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The conformance suite checks every parallel, blocked, and fused kernel
// against the retained naive references in reference.go on randomized
// shapes — including empty and 1-row tensors — across worker counts and
// with and without an arena. Because no kernel reorders floating-point
// sums, the comparison is exact equality, not epsilon closeness: any
// blocking or partitioning change that altered summation order would fail
// here immediately. Every test runs on both axpy paths — the AVX2 assembly,
// when the machine has it, and the Go loop — so each path is held to the
// references on its own.

// contexts returns the compute configurations conformance runs under.
// Worker counts above 1 spawn real goroutines even on a single-CPU
// machine, so `go test -race` exercises the concurrent kernels.
func contexts() map[string]*Compute {
	return map[string]*Compute{
		"serial":        NewCompute(1, nil),
		"workers2":      NewCompute(2, nil),
		"workers4":      NewCompute(4, nil),
		"workers4arena": NewCompute(4, NewArena()),
	}
}

// forEachContext runs f as a subtest under every compute configuration on
// every axpy path.
func forEachContext(t *testing.T, f func(t *testing.T, c *Compute)) {
	for _, avx2 := range axpyPaths() {
		for name, c := range contexts() {
			t.Run(fmt.Sprintf("avx2=%v/%s", avx2, name), func(t *testing.T) {
				setAVX2(t, avx2)
				f(t, c)
			})
		}
	}
}

// axpyPaths lists the values of useAVX2 this machine can run.
func axpyPaths() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// setAVX2 selects the axpy path for the rest of the test.
func setAVX2(t testing.TB, on bool) {
	saved := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = saved })
}

// sameBits reports whether two results are the same float32 bit pattern,
// so -0 differs from +0. All NaNs count as one value: which operand's
// payload a NaN result carries is up to the instruction's operand order,
// which Go does not pin, and no kernel promises it.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// exactEqual demands identical shape and bit-identical elements.
func exactEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// randDim draws a dimension biased toward the edge cases 0 and 1, with an
// occasional large value so the kernels actually fan out (serialFor sees
// work above the parallel threshold and dispatches goroutines).
func randDim(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 40 + rng.Intn(90) // large enough for multi-goroutine tiles
	default:
		return rng.Intn(12) + 1
	}
}

// randOffsets builds a valid non-decreasing offsets array over n rows with
// empty segments sprinkled in. It always returns at least one segment for
// n > 0 and an empty array for n == 0 (sometimes; callers handle both).
func randOffsets(rng *rand.Rand, n int) []int32 {
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	ns := rng.Intn(6) + 1
	offs := make([]int32, ns)
	for s := 1; s < ns; s++ {
		offs[s] = int32(rng.Intn(n + 1))
	}
	// Sort into non-decreasing order (tiny n, insertion sort).
	for i := 1; i < ns; i++ {
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
	offs[0] = 0
	return offs
}

func randIdx(rng *rand.Rand, n, rows int) []int32 {
	if rows == 0 {
		return make([]int32, 0)
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(rng.Intn(rows))
	}
	return idx
}

func TestConformanceMatMulFamily(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 60; trial++ {
			n, k, m := randDim(rng), randDim(rng), randDim(rng)
			a, b := randn(rng, n, k), randn(rng, k, m)
			exactEqual(t, fmt.Sprintf("MatMul %dx%dx%d", n, k, m),
				c.MatMul(a, b), RefMatMul(a, b))
		}
	})
}

func TestConformanceMatMulTransposes(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 60; trial++ {
			k := randDim(rng)
			a := randn(rng, randDim(rng), k)
			b := randn(rng, randDim(rng), k)
			exactEqual(t, "MatMulTransposeB", c.MatMulTransposeB(a, b), RefMatMulTransposeB(a, b))

			ta := randn(rng, k, randDim(rng))
			tb := randn(rng, k, randDim(rng))
			exactEqual(t, "MatMulTransposeA", c.MatMulTransposeA(ta, tb), RefMatMulTransposeA(ta, tb))
		}
	})
}

// refMatMulSeeded folds a@b terms onto out's existing values in
// ascending-p order — the documented accumulate semantics of MatMulInto
// and MatMulTransposeAInto (axpy-style kernels).
func refMatMulSeeded(out, a, b *Tensor) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := out.At(i, j)
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
}

func refMatMulTASeeded(out, a, b *Tensor) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := out.At(i, j)
			for p := 0; p < a.Rows; p++ {
				s += a.At(p, i) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
}

func TestConformanceInPlaceAccumulate(t *testing.T) {
	// The in-place accumulate variants feed autograd's gradient
	// accumulation. Each kernel documents its fold order — axpy kernels
	// fold terms onto the seed ascending in p; the dot-product kernel adds
	// its complete zero-seeded dot in one addition — and the references
	// here reproduce those orders so equality is exact.
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(103))
		for trial := 0; trial < 40; trial++ {
			n, k, m := randDim(rng), randDim(rng), randDim(rng)
			a, b := randn(rng, n, k), randn(rng, k, m)
			init := randn(rng, n, m)

			out := init.Clone()
			c.MatMulInto(out, a, b, true)
			want := init.Clone()
			refMatMulSeeded(want, a, b)
			exactEqual(t, "MatMulInto accumulate", out, want)

			// Gradient-shaped accumulations for the transpose variants.
			g := randn(rng, n, m)
			ga := randn(rng, n, k)
			gaWant := ga.Clone()
			c.MatMulTransposeBInto(ga, g, b, true)
			gp := RefMatMulTransposeB(g, b)
			gaWant.AddInPlace(gp)
			exactEqual(t, "MatMulTransposeBInto accumulate", ga, gaWant)

			gb := randn(rng, k, m)
			gbWant := gb.Clone()
			c.MatMulTransposeAInto(gb, a, g, true)
			refMatMulTASeeded(gbWant, a, g)
			exactEqual(t, "MatMulTransposeAInto accumulate", gb, gbWant)
		}
	})
}

func TestConformanceGatherAndSegments(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(104))
		for trial := 0; trial < 60; trial++ {
			rows, cols := randDim(rng)+1, randDim(rng)
			a := randn(rng, rows, cols)
			idx := randIdx(rng, randDim(rng), rows)
			exactEqual(t, "Gather", c.Gather(a, idx), RefGather(a, idx))

			offs := randOffsets(rng, a.Rows)
			if offs == nil && a.Rows != 0 {
				offs = []int32{0}
			}
			exactEqual(t, "SegmentSum", c.SegmentSum(a, offs), RefSegmentSum(a, offs))
			exactEqual(t, "SegmentMean", c.SegmentMean(a, offs), RefSegmentMean(a, offs))

			gOffs := randOffsets(rng, len(idx))
			if gOffs == nil && len(idx) != 0 {
				gOffs = []int32{0}
			}
			exactEqual(t, "GatherSegmentSum",
				c.GatherSegmentSum(a, idx, gOffs), RefGatherSegmentSum(a, idx, gOffs))
			exactEqual(t, "GatherSegmentMean",
				c.GatherSegmentMean(a, idx, gOffs), RefGatherSegmentMean(a, idx, gOffs))
		}
	})
}

func TestConformanceGatherMatMulTB(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(105))
		for trial := 0; trial < 60; trial++ {
			k := randDim(rng)
			table := randn(rng, randDim(rng)+1, k)
			a := randn(rng, randDim(rng), k)
			idx := randIdx(rng, randDim(rng), table.Rows)
			exactEqual(t, "GatherMatMulTB",
				c.GatherMatMulTB(a, table, idx), RefGatherMatMulTB(a, table, idx))
		}
	})
}

func TestConformanceSoftmaxKernels(t *testing.T) {
	// Softmax kernels parallelize over independent rows/segments, and their
	// exponentials run four lanes at a time in the assembly, with each
	// element's arithmetic and the order of the sum unchanged; so they match
	// the math.Exp references exactly, on normal draws, on spreads wider than
	// 708 (subnormal and zero exponentials) and on rows holding ±Inf and NaN.
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(106))
		for trial := 0; trial < 60; trial++ {
			rows, cols := randDim(rng), randDim(rng)+1
			var a, v *Tensor
			switch trial % 3 {
			case 0:
				a, v = randn(rng, rows, cols), randn(rng, randDim(rng), 1)
			case 1:
				a, v = randn(rng, rows, cols), randn(rng, randDim(rng), 1)
				a.ScaleInPlace(400)
				v.ScaleInPlace(400)
			default:
				a, v = mixed(rng, rows, cols, 1, false), mixed(rng, randDim(rng), 1, 3, false)
			}
			exactEqual(t, "RowSoftmax", c.RowSoftmax(a), RefRowSoftmax(a))

			offs := randOffsets(rng, v.Rows)
			if offs == nil && v.Rows != 0 {
				offs = []int32{0}
			}
			exactEqual(t, "SegmentSoftmax", c.SegmentSoftmax(v, offs), RefSegmentSoftmax(v, offs))
		}
	})
}

func TestKernelsBitwiseIndependentOfWorkersAndArena(t *testing.T) {
	// The determinism contract: a kernel's result is a pure function of its
	// inputs — worker count, arena, and blocking never change a bit.
	rng := rand.New(rand.NewSource(107))
	a := randn(rng, 96, 64)
	b := randn(rng, 64, 48)
	base := NewCompute(1, nil).MatMul(a, b)
	for w := 2; w <= 8; w *= 2 {
		exactEqual(t, fmt.Sprintf("workers=%d", w), NewCompute(w, nil).MatMul(a, b), base)
		arena := NewArena()
		cw := NewCompute(w, arena)
		for pass := 0; pass < 3; pass++ { // repeated passes reuse recycled arena memory
			exactEqual(t, fmt.Sprintf("workers=%d arena pass=%d", w, pass), cw.MatMul(a, b), base)
			arena.Reset()
		}
	}
}
