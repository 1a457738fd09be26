package tensor

import (
	"math/rand"
	"testing"
)

func TestArenaAllocZeroedAndStable(t *testing.T) {
	a := NewArena()
	x := a.Alloc(3, 4)
	if x.Rows != 3 || x.Cols != 4 || len(x.Data) != 12 {
		t.Fatalf("bad shape %dx%d len %d", x.Rows, x.Cols, len(x.Data))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Alloc not zeroed")
		}
	}
	x.Fill(7)
	// Headers handed out earlier must survive pool growth.
	var many []*Tensor
	for i := 0; i < 4*arenaHdrChunk; i++ {
		many = append(many, a.Alloc(1, 1))
	}
	if x.At(0, 0) != 7 {
		t.Fatal("early tensor corrupted by pool growth")
	}
	for i, m := range many {
		m.Data[0] = float32(i)
	}
	for i, m := range many {
		if m.Data[0] != float32(i) {
			t.Fatalf("header %d aliased", i)
		}
	}
	// After Reset, recycled buffers come back zeroed.
	a.Reset()
	y := a.Alloc(3, 4)
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
}

// poisoned runs f with every raw allocation filled with NaN.
func poisoned(f func()) {
	saved := poisonRaw
	poisonRaw = true
	defer func() { poisonRaw = saved }()
	f()
}

// TestArenaAllocRawPoisoned checks the poison hook itself: raw arena
// allocations and scratch come back NaN under it, zeroed ones still zero.
func TestArenaAllocRawPoisoned(t *testing.T) {
	a := NewArena()
	poisoned(func() {
		c := NewCompute(1, a)
		for _, raw := range []*Tensor{a.AllocRaw(2, 3), c.allocRaw(2, 3), FromSlice(1, 4, c.scratch(4))} {
			for _, v := range raw.Data {
				if v == v {
					t.Fatalf("raw allocation holds %v under the poison hook, want NaN", v)
				}
			}
		}
		for _, v := range a.Alloc(2, 3).Data {
			if v != 0 {
				t.Fatal("Alloc not zeroed under the poison hook")
			}
		}
	})
}

func TestArenaOversizedAllocation(t *testing.T) {
	a := NewArena()
	big := a.Alloc(1, arenaSlabFloats+100)
	if len(big.Data) != arenaSlabFloats+100 {
		t.Fatal("oversized alloc truncated")
	}
	a.Reset()
	big2 := a.Alloc(1, arenaSlabFloats+100)
	if len(big2.Data) != arenaSlabFloats+100 {
		t.Fatal("oversized realloc truncated")
	}
}

func TestArenaZeroSizedTensors(t *testing.T) {
	a := NewArena()
	for _, shape := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		x := a.Alloc(shape[0], shape[1])
		if x.Rows != shape[0] || x.Cols != shape[1] || len(x.Data) != 0 {
			t.Fatalf("bad empty tensor %dx%d", shape[0], shape[1])
		}
	}
}

// trainStep runs the kernel sequence of one steady-state training batch —
// fused embedding gather+aggregate, two linear layers with in-place ReLU,
// the backward matmuls with in-place accumulation, and the gradient
// write-back through the fused gather's backward into the caller-owned dh0
// buffer.
func trainStep(c *Compute, h0, w1, w2, dh0 *Tensor, idx, offsets []int32) {
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
}

// TestArenaSteadyStateZeroAllocs is the allocation contract of the arena:
// once warmed up, a full per-batch kernel cycle (trainStep's forward +
// backward + write-back, then Reset) performs zero heap allocations on the
// serial deterministic path. (Multi-worker kernels additionally pay a few
// small allocations per kernel launch for goroutine dispatch.)
func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arena := NewArena()
	c := NewCompute(1, arena)
	h0 := randn(rng, 300, 32)
	w1 := randn(rng, 32, 32)
	w2 := randn(rng, 32, 32)
	dh0 := New(h0.Rows, h0.Cols)
	idx := randIdx(rng, 900, h0.Rows)
	offsets := make([]int32, 60)
	for s := 1; s < len(offsets); s++ {
		offsets[s] = offsets[s-1] + 15
	}
	step := func() {
		trainStep(c, h0, w1, w2, dh0, idx, offsets)
		arena.Reset()
	}
	step() // warm up the slabs and header pool
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state batch performed %.0f heap allocations, want 0", allocs)
	}
}

func TestTapeResetRecyclesNodes(t *testing.T) {
	arena := NewArena()
	tp := NewTapeWith(NewCompute(1, arena))
	rng := rand.New(rand.NewSource(2))
	x := randn(rng, 8, 8)
	w := randn(rng, 8, 8)
	run := func() float32 {
		tp.Reset()
		arena.Reset()
		xn := tp.Leaf(x, true)
		wn := tp.Leaf(w, true)
		loss := tp.MeanAll(tp.ReLU(tp.MatMul(xn, wn)))
		tp.Backward(loss)
		if xn.Grad() == nil || wn.Grad() == nil {
			t.Fatal("missing gradients after reuse")
		}
		return loss.Value.Data[0]
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("reused tape diverged: %v vs %v", got, first)
		}
	}
	if tp.Len() == 0 {
		t.Fatal("tape recorded nothing")
	}
}
