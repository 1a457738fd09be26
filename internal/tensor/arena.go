package tensor

import "math"

// Arena is a bump allocator for the tensors of one training step. A trainer
// owns one Arena per compute stage: every activation and gradient buffer of
// a mini batch is carved out of the arena's slabs, and Reset at the end of
// the batch recycles all of them at once. After warm-up (the first few
// batches grow the slab list to the steady-state footprint) an
// Alloc/Reset cycle performs zero heap allocations.
//
// Ownership rules:
//
//   - Every *Tensor returned by Alloc — and, transitively, every tensor a
//     Tape backed by this arena produces (op outputs, gradients) — is owned
//     by the arena and is invalidated by Reset. Consume values and
//     gradients (optimizer steps, metrics, write-back) before resetting.
//   - To keep data beyond Reset, Clone it: Clone always heap-allocates.
//   - An Arena is not safe for concurrent use. It belongs to exactly one
//     goroutine at a time — in training, the compute stage; the sampling
//     workers heap-allocate their own batch buffers.
//
// Alloc zeroes the returned buffer, matching New's semantics, so kernels
// that accumulate into fresh outputs (the matmuls, the segment sums, every
// gradient buffer) behave identically on both paths. AllocRaw skips the
// zeroing and hands back whatever the slab last held: its caller must
// write every element before any is read, and must not let a raw tensor
// escape to code that assumes zeros. Within this package it backs only
// outputs a kernel overwrites in full (copies, gathers, softmaxes, the
// a@bᵀ products and their scratch).
type Arena struct {
	slabs [][]float32
	slab  int // index of the slab currently carved
	off   int // floats consumed from slabs[slab]

	// Tensor headers are pooled in fixed-size chunks so previously returned
	// pointers stay valid while the pool grows.
	hdrs   [][]Tensor
	hchunk int
	hoff   int
}

const (
	// arenaSlabFloats is the default slab size (1 MiB of float32s).
	arenaSlabFloats = 1 << 18
	// arenaHdrChunk is the number of Tensor headers per pool chunk.
	arenaHdrChunk = 256
)

// NewArena returns an empty arena; slabs are allocated on demand.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a zeroed rows x cols tensor owned by the arena.
func (a *Arena) Alloc(rows, cols int) *Tensor { return a.alloc(rows, cols, true) }

// AllocRaw returns a rows x cols tensor owned by the arena whose contents
// are undefined; the caller writes every element before reading any.
func (a *Arena) AllocRaw(rows, cols int) *Tensor { return a.alloc(rows, cols, false) }

func (a *Arena) alloc(rows, cols int, zero bool) *Tensor {
	if rows < 0 || cols < 0 {
		panic("tensor: Arena.Alloc negative shape")
	}
	t := a.hdr()
	t.Rows, t.Cols = rows, cols
	t.Data = a.take(rows*cols, zero)
	return t
}

// Reset recycles every tensor handed out since the previous Reset. The
// slabs and header chunks are retained, so a steady-state Alloc/Reset cycle
// does not touch the heap.
func (a *Arena) Reset() {
	a.slab, a.off = 0, 0
	a.hchunk, a.hoff = 0, 0
}

// take carves n floats out of the slab list, growing it if needed, and
// zeroes them when zero is set.
func (a *Arena) take(n int, zero bool) []float32 {
	if n == 0 {
		return nil
	}
	for a.slab < len(a.slabs) && len(a.slabs[a.slab])-a.off < n {
		a.slab++
		a.off = 0
	}
	if a.slab == len(a.slabs) {
		size := arenaSlabFloats
		if n > size {
			size = n
		}
		a.slabs = append(a.slabs, make([]float32, size))
		a.off = 0
	}
	buf := a.slabs[a.slab][a.off : a.off+n : a.off+n]
	a.off += n
	if zero {
		clear(buf)
	} else {
		poison(buf)
	}
	return buf
}

// poisonRaw makes every raw arena allocation start as NaN. It is a test
// hook: a kernel that reads an element of a raw output before writing it
// then turns its result into NaN instead of silently relying on whatever
// the slab held.
var poisonRaw bool

// poison fills buf with NaN when poisonRaw is set.
func poison(buf []float32) {
	if poisonRaw {
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
	}
}

// hdr returns a pooled Tensor header.
func (a *Arena) hdr() *Tensor {
	if a.hchunk == len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]Tensor, arenaHdrChunk))
	}
	t := &a.hdrs[a.hchunk][a.hoff]
	a.hoff++
	if a.hoff == arenaHdrChunk {
		a.hchunk++
		a.hoff = 0
	}
	return t
}
