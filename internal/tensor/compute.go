package tensor

import (
	"runtime"
	"sync"
)

// Compute is the execution context for the dense kernels: how many
// goroutines a kernel may fan out to, and which Arena (if any) supplies its
// output buffers. It is the CPU stand-in for the paper's GPU execution:
// DENSE's layout lets every kernel split into independent row/segment
// ranges (the property that makes it fast on SIMT hardware), whereas the
// baseline's per-edge scatter-add must serialize its accumulation (the
// property that makes sparse kernels underutilize GPUs). ScatterAdd is
// therefore deliberately left single-threaded.
//
// Determinism: parallelism only ever partitions *output* rows or segments
// across goroutines — no kernel splits a floating-point reduction. Every
// output element is accumulated by exactly one goroutine in the same order
// the serial kernel uses, so kernel results are bitwise identical at every
// worker count. The worker knob trades latency, never numerics; the only
// nondeterminism in multi-worker training is pipeline batch ordering.
//
// SIMD follows the same rule one level down. The kernels' inner loop is
// axpy (kernels.go), AVX2 assembly where CPUID reports it and a Go loop
// elsewhere; no setting chooses. No lane splits a reduction: a lane owns
// one output element and performs that element's multiply and add in the
// scalar loop's ascending order, each rounded separately. A fused
// multiply-add is forbidden, since it rounds once and would change low
// bits. The two paths are therefore bit-identical (NaN payloads aside,
// which no kernel promises), and checkpoints, losses and served bytes do
// not depend on which one a machine runs. axpyN, the many-term form the
// matmuls and segment sums call, adds one thing: the assembly keeps an
// output element in its lane's register from the first term to the last
// where a loop of axpys stores and reloads it. Order, rounding and the
// skipping of zero coefficients are as before. aᵀ@b makes the output row
// its outer loop inside a k-block so that this works; that interchange
// cannot reorder a sum, since each output element still meets its terms
// block by block and, within a block, in ascending p.
//
// A nil *Compute is valid and behaves as the package default: up to
// GOMAXPROCS workers, heap-allocated outputs. The free kernel functions
// (MatMul, Gather, ...) run on this default context.
type Compute struct {
	workers int
	arena   *Arena
}

// NewCompute returns a context that fans kernels out to at most workers
// goroutines (workers <= 0 means GOMAXPROCS) and allocates kernel outputs
// from arena (nil means the heap). The worker cap is authoritative: it is
// not clamped to GOMAXPROCS, so a 4-worker context exercises real
// concurrency — and the race detector — even on a single-CPU machine.
func NewCompute(workers int, arena *Arena) *Compute {
	return &Compute{workers: workers, arena: arena}
}

// Workers reports the configured worker cap (0 = GOMAXPROCS).
func (c *Compute) Workers() int {
	if c == nil {
		return 0
	}
	return c.workers
}

// Arena returns the arena kernel outputs are drawn from, or nil.
func (c *Compute) Arena() *Arena {
	if c == nil {
		return nil
	}
	return c.arena
}

func (c *Compute) maxWorkers() int {
	if c == nil || c.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
}

// alloc returns a zeroed rows x cols output buffer from the arena when one
// is attached, else from the heap.
func (c *Compute) alloc(rows, cols int) *Tensor {
	if c == nil || c.arena == nil {
		return New(rows, cols)
	}
	return c.arena.Alloc(rows, cols)
}

// clone copies t into a context-owned buffer.
func (c *Compute) clone(t *Tensor) *Tensor {
	out := c.alloc(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// parallelThreshold is the minimum amount of work (rows x cols x depth)
// before a kernel fans out to multiple goroutines.
const parallelThreshold = 1 << 14

// serialFor reports whether a kernel over n independent ranges totalling
// `work` element-operations should run inline. Kernels branch on this
// BEFORE constructing the fan-out closure, so the serial path — the
// single-worker deterministic configuration and anything under the work
// threshold — performs zero heap allocations.
func (c *Compute) serialFor(n, work int) bool {
	return n < 2 || work < parallelThreshold || c.maxWorkers() <= 1
}

// scratch returns n floats of kernel working memory, from the arena when
// one is attached (so it is recycled with the batch), else from the heap.
func (c *Compute) scratch(n int) []float32 {
	if c == nil || c.arena == nil {
		return make([]float32, n)
	}
	return c.arena.take(n)
}

// split returns the length and the number of the contiguous chunks fanOut
// cuts [0, n) into; chunk i starts at i*chunk.
func (c *Compute) split(n int) (chunk, parts int) {
	workers := min(c.maxWorkers(), n)
	chunk = (n + workers - 1) / workers
	return chunk, (n + chunk - 1) / chunk
}

// fanOut splits [0, n) into contiguous chunks and runs fn on each
// concurrently. fn must only write state owned by its range. Callers have
// already ruled out the serial case via serialFor.
func (c *Compute) fanOut(n int, fn func(start, end int)) {
	chunk, _ := c.split(n)
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, min(start+chunk, n))
	}
	wg.Wait()
}
