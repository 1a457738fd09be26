package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// This file implements the incremental, bucket-segmented adjacency index.
//
// The trainer's partition buffer holds c resident partitions; the
// in-memory edge set is the c² edge buckets among them. The from-scratch
// path (BuildAdjacency over the flattened buckets) redoes O(c²) buckets of
// counting-sort work on every visit even though a BETA/COMET swap replaces
// only one or two partitions. Here each bucket is counting-sorted into a
// small immutable CSR fragment (BucketFrag) exactly once — fragments are
// built per bucket read and cached by the storage layer — and a visit's
// index is a Segmented view composing the resident c² fragment pointers.
// Swap reconciles the view against the next visit's partition set, reusing
// every fragment whose row and column partitions stay resident, so a
// one-partition swap touches only the O(c) affected row and column.
//
// Ordering contract: a node's neighbor list is the concatenation of its
// per-bucket segments in ascending resident-partition order, which is
// byte-for-byte the order BuildAdjacency produces over edges read
// bucket-by-bucket in ascending (i, j) order (counting sort is stable).
// Samplers therefore draw identical neighbor sequences from either index
// for the same RNG state. A fragment also keeps its bucket's file order
// (each out-CSR entry's index in it), so AppendEdges gives back the edges
// of any resident bucket exactly as the edge store holds them: link
// prediction trains on the view's buckets, not on a second read.

// BucketFrag is the immutable CSR fragment of one edge bucket (i, j): the
// bucket's edges sorted by source over partition i's node range (out view)
// and by destination over partition j's node range (in view). Fragments
// are safe for concurrent readers and are shared across Segmented views.
type BucketFrag struct {
	srcLo, srcHi int32 // node range [srcLo, srcHi) of the source partition
	dstLo, dstHi int32 // node range [dstLo, dstHi) of the destination partition
	outOff       []int32
	outDst       []int32
	outRel       []int32 // relation of each outgoing edge, parallel to outDst
	outPos       []int32 // index of each outgoing edge in the bucket's file order
	inOff        []int32
	inSrc        []int32
	inRel        []int32 // relation of each incoming edge, parallel to inSrc
}

// BuildBucketFrag counting-sorts a bucket's edges into a fragment. Every
// edge must have Src in [srcLo, srcHi) and Dst in [dstLo, dstHi) — the
// edge-bucket contract of partition.Buckets. The sort is stable, so
// within-bucket neighbor order matches BuildAdjacency's; edge relations
// ride the same sort into parallel arrays, extending the ordering
// contract to typed edges, and so does each edge's index in edges, from
// which AppendEdges restores the bucket's order.
func BuildBucketFrag(srcLo, srcHi, dstLo, dstHi int32, edges []Edge) *BucketFrag {
	f := &BucketFrag{
		srcLo: srcLo, srcHi: srcHi, dstLo: dstLo, dstHi: dstHi,
		outOff: make([]int32, srcHi-srcLo+1),
		inOff:  make([]int32, dstHi-dstLo+1),
		outDst: make([]int32, len(edges)),
		outRel: make([]int32, len(edges)),
		outPos: make([]int32, len(edges)),
		inSrc:  make([]int32, len(edges)),
		inRel:  make([]int32, len(edges)),
	}
	for _, e := range edges {
		f.outOff[e.Src-srcLo+1]++
		f.inOff[e.Dst-dstLo+1]++
	}
	for i := 1; i < len(f.outOff); i++ {
		f.outOff[i] += f.outOff[i-1]
	}
	for i := 1; i < len(f.inOff); i++ {
		f.inOff[i] += f.inOff[i-1]
	}
	outCur := make([]int32, srcHi-srcLo)
	inCur := make([]int32, dstHi-dstLo)
	for k, e := range edges {
		s, d := e.Src-srcLo, e.Dst-dstLo
		o := f.outOff[s] + outCur[s]
		f.outDst[o] = e.Dst
		f.outRel[o] = e.Rel
		f.outPos[o] = int32(k)
		outCur[s]++
		i := f.inOff[d] + inCur[d]
		f.inSrc[i] = e.Src
		f.inRel[i] = e.Rel
		inCur[d]++
	}
	return f
}

// NumEdges returns the number of edges in the fragment.
func (f *BucketFrag) NumEdges() int { return len(f.outDst) }

// outNbrs returns v's outgoing-neighbor segment (empty outside the range).
func (f *BucketFrag) outNbrs(v int32) []int32 {
	if v < f.srcLo || v >= f.srcHi {
		return nil
	}
	return f.outNbrsIn(v)
}

// outNbrsIn is outNbrs without the range check, for fragments reached
// through the node's own partition row (v ∈ [srcLo, srcHi) by
// construction).
func (f *BucketFrag) outNbrsIn(v int32) []int32 {
	i := v - f.srcLo
	return f.outDst[f.outOff[i]:f.outOff[i+1]]
}

// inNbrs returns v's incoming-neighbor segment (empty outside the range).
func (f *BucketFrag) inNbrs(v int32) []int32 {
	if v < f.dstLo || v >= f.dstHi {
		return nil
	}
	return f.inNbrsIn(v)
}

// inNbrsIn is inNbrs without the range check, for fragments reached
// through the node's own partition column.
func (f *BucketFrag) inNbrsIn(v int32) []int32 {
	i := v - f.dstLo
	return f.inSrc[f.inOff[i]:f.inOff[i+1]]
}

// outRels returns the relations parallel to outNbrs (empty outside the
// range).
func (f *BucketFrag) outRels(v int32) []int32 {
	if v < f.srcLo || v >= f.srcHi {
		return nil
	}
	i := v - f.srcLo
	return f.outRel[f.outOff[i]:f.outOff[i+1]]
}

// inRels returns the relations parallel to inNbrs (empty outside the
// range).
func (f *BucketFrag) inRels(v int32) []int32 {
	if v < f.dstLo || v >= f.dstHi {
		return nil
	}
	i := v - f.dstLo
	return f.inRel[f.inOff[i]:f.inOff[i+1]]
}

// FragSource provides bucket fragments on demand (the storage layer's
// fragment cache). Frags returns immutable fragments; repeated lookups of
// a bucket should be cheap.
type FragSource interface {
	// NumNodes is the global node-ID space size.
	NumNodes() int
	// NumPartitions is p, the physical partition count.
	NumPartitions() int
	// PartSize is the contiguous per-partition node count.
	PartSize() int
	// Frags appends to dst the fragment of each of buckets, in order, and
	// returns the extended slice. It is one lookup: the buckets it has to
	// read are read as one request.
	Frags(buckets [][2]int32, dst []*BucketFrag) ([]*BucketFrag, error)
}

// Segmented is a visit-level adjacency view over the resident partitions'
// bucket fragments. A view is immutable once built (safe for concurrent
// samplers); Swap derives the next visit's view from it, sharing every
// fragment both visits have resident. It implements Index with the same
// neighbor ordering as BuildAdjacency over the equivalent edge set.
type Segmented struct {
	src      FragSource
	numNodes int
	partSize int
	mem      []int   // sorted resident partitions
	memIdx   []int32 // partition -> index into mem, -1 when absent
	// rows[a] lists frag(mem[a], mem[b]) for b ascending — node v in
	// partition mem[a] draws its outgoing segments from rows[a] in order.
	// cols[a] lists frag(mem[b], mem[a]) for b ascending — the incoming
	// segments of nodes in partition mem[a]. Both share frag pointers.
	rows     [][]*BucketFrag
	cols     [][]*BucketFrag
	numEdges int
}

// NewSegmented returns an empty view (no resident partitions) over src;
// Swap builds the first visit's view from it.
func NewSegmented(src FragSource) *Segmented {
	return &Segmented{
		src:      src,
		numNodes: src.NumNodes(),
		partSize: src.PartSize(),
		memIdx:   newMemIdx(src.NumPartitions(), nil),
	}
}

func newMemIdx(p int, mem []int) []int32 {
	idx := make([]int32, p)
	for i := range idx {
		idx[i] = -1
	}
	for a, m := range mem {
		idx[m] = int32(a)
	}
	return idx
}

// Swap returns the view for the given resident partition set, reusing
// every fragment of s whose bucket stays resident and looking up the
// fragments of admitted rows and columns in one call to the source, in
// row-major order over mem. mem must be sorted ascending (as policy
// visits are); s is left untouched, so views of in-flight pipelined
// visits remain valid.
func (s *Segmented) Swap(mem []int) (*Segmented, error) {
	p := len(s.memIdx)
	ns := &Segmented{
		src:      s.src,
		numNodes: s.numNodes,
		partSize: s.partSize,
		mem:      append([]int(nil), mem...),
		rows:     make([][]*BucketFrag, len(mem)),
		cols:     make([][]*BucketFrag, len(mem)),
	}
	for a, m := range mem {
		if m < 0 || m >= p {
			return nil, fmt.Errorf("graph: partition %d out of range [0,%d)", m, p)
		}
		if a > 0 && mem[a-1] >= m {
			return nil, fmt.Errorf("graph: resident set %v not sorted unique", mem)
		}
	}
	ns.memIdx = newMemIdx(p, ns.mem)
	for a := range ns.mem {
		ns.rows[a] = make([]*BucketFrag, len(mem))
		ns.cols[a] = make([]*BucketFrag, len(mem))
	}
	var lacks [][2]int32
	for a, i := range ns.mem {
		for b, j := range ns.mem {
			if oi, oj := s.memIdx[i], s.memIdx[j]; oi >= 0 && oj >= 0 {
				ns.rows[a][b] = s.rows[oi][oj]
			} else {
				lacks = append(lacks, [2]int32{int32(i), int32(j)})
			}
		}
	}
	frags, err := s.src.Frags(lacks, nil)
	if err != nil {
		return nil, fmt.Errorf("graph: fragments of %v: %w", mem, err)
	}
	for a := range ns.mem {
		for b := range ns.mem {
			f := ns.rows[a][b]
			if f == nil {
				f, frags = frags[0], frags[1:]
				ns.rows[a][b] = f
			}
			ns.cols[b][a] = f
			ns.numEdges += f.NumEdges()
		}
	}
	return ns, nil
}

// AppendEdges appends the edges of each of buckets to dst, every bucket in
// its file order, and returns the extended slice: what reading them from
// the edge store would give, without a read. A bucket whose partitions
// are not both resident is refused, and dst is returned as it came.
func (s *Segmented) AppendEdges(dst []Edge, buckets [][2]int32) ([]Edge, error) {
	n := len(dst)
	for _, ij := range buckets {
		i, j := int(ij[0]), int(ij[1])
		if i < 0 || i >= len(s.memIdx) || j < 0 || j >= len(s.memIdx) || s.memIdx[i] < 0 || s.memIdx[j] < 0 {
			return dst[:n], fmt.Errorf("graph: bucket (%d,%d) outside the resident set %v", i, j, s.mem)
		}
		f, at := s.rows[s.memIdx[i]][s.memIdx[j]], len(dst)
		dst = slices.Grow(dst, f.NumEdges())[:at+f.NumEdges()]
		for r := range len(f.outOff) - 1 { // out-CSR row r is source srcLo+r
			for o := f.outOff[r]; o < f.outOff[r+1]; o++ {
				dst[at+int(f.outPos[o])] = Edge{Src: f.srcLo + int32(r), Rel: f.outRel[o], Dst: f.outDst[o]}
			}
		}
	}
	return dst, nil
}

// Mem returns the sorted resident partition set (a view; do not mutate).
func (s *Segmented) Mem() []int { return s.mem }

// NumNodes implements Index: the global node-ID space size.
func (s *Segmented) NumNodes() int { return s.numNodes }

// NumEdges implements Index: edges across all resident buckets.
func (s *Segmented) NumEdges() int { return s.numEdges }

// segsOf returns the ordered fragment list serving v for the given
// direction, or nil when v's partition is not resident.
func (s *Segmented) segsOf(v int32, out bool) []*BucketFrag {
	a := s.memIdx[int(v)/s.partSize]
	if a < 0 {
		return nil
	}
	if out {
		return s.rows[a]
	}
	return s.cols[a]
}

// OutDegree implements Index.
func (s *Segmented) OutDegree(v int32) int {
	n := 0
	for _, f := range s.segsOf(v, true) {
		n += len(f.outNbrs(v))
	}
	return n
}

// InDegree implements Index.
func (s *Segmented) InDegree(v int32) int {
	n := 0
	for _, f := range s.segsOf(v, false) {
		n += len(f.inNbrs(v))
	}
	return n
}

// AppendOutNeighbors implements Index: segments concatenate in ascending
// resident-partition order, matching BuildAdjacency's neighbor order.
func (s *Segmented) AppendOutNeighbors(dst []int32, v int32) []int32 {
	for _, f := range s.segsOf(v, true) {
		dst = append(dst, f.outNbrs(v)...)
	}
	return dst
}

// AppendInNeighbors implements Index.
func (s *Segmented) AppendInNeighbors(dst []int32, v int32) []int32 {
	for _, f := range s.segsOf(v, false) {
		dst = append(dst, f.inNbrs(v)...)
	}
	return dst
}

// AppendOutRels appends the relations of v's outgoing edges, parallel to
// AppendOutNeighbors (same segment order, same stable sort).
func (s *Segmented) AppendOutRels(dst []int32, v int32) []int32 {
	for _, f := range s.segsOf(v, true) {
		dst = append(dst, f.outRels(v)...)
	}
	return dst
}

// AppendInRels appends the relations of v's incoming edges, parallel to
// AppendInNeighbors.
func (s *Segmented) AppendInRels(dst []int32, v int32) []int32 {
	for _, f := range s.segsOf(v, false) {
		dst = append(dst, f.inRels(v)...)
	}
	return dst
}

// segPool is random access into a node's concatenated non-empty
// neighbor segments (gathered once per node by sampleDir).
type segPool [][]int32

func (p segPool) at(t int32) int32 {
	for _, seg := range p {
		if int(t) < len(seg) {
			return seg[t]
		}
		t -= int32(len(seg))
	}
	panic("graph: segmented pool index out of range")
}

// SampleNeighbors implements Index with the same semantics and — for a
// given rng state — the same pick sequence as (*Adjacency).SampleNeighbors
// over the equivalent edge set.
func (s *Segmented) SampleNeighbors(dst []int32, v int32, fanout int, dirs Directions, rng *rand.Rand, sc *SampleScratch) []int32 {
	if sc == nil {
		sc = &SampleScratch{}
	}
	if dirs&Outgoing != 0 {
		dst = s.sampleDir(dst, v, fanout, true, rng, sc)
	}
	if dirs&Incoming != 0 {
		dst = s.sampleDir(dst, v, fanout, false, rng, sc)
	}
	return dst
}

func (s *Segmented) sampleDir(dst []int32, v int32, fanout int, out bool, rng *rand.Rand, sc *SampleScratch) []int32 {
	// Gather the node's non-empty segments once; most nodes touch far
	// fewer than c buckets, and single-segment nodes sample at flat-CSR
	// speed below.
	segs := sc.segs[:0]
	n := 0
	for _, f := range s.segsOf(v, out) {
		var seg []int32
		if out {
			seg = f.outNbrsIn(v)
		} else {
			seg = f.inNbrsIn(v)
		}
		if len(seg) > 0 {
			segs = append(segs, seg)
			n += len(seg)
		}
	}
	sc.segs = segs
	if n <= fanout {
		for _, seg := range segs {
			dst = append(dst, seg...)
		}
		return dst
	}
	if len(segs) == 1 {
		return floydSample(dst, flatPool(segs[0]), n, fanout, rng, sc)
	}
	if n <= flattenThreshold {
		// Small multi-segment pools (the common case under power-law
		// degrees) are cheaper to copy once than to scan per draw.
		flat := sc.flat[:0]
		for _, seg := range segs {
			flat = append(flat, seg...)
		}
		sc.flat = flat
		return floydSample(dst, flatPool(flat), n, fanout, rng, sc)
	}
	return floydSample(dst, segPool(segs), n, fanout, rng, sc)
}

// flattenThreshold is the pool size below which a multi-segment neighbor
// list is copied contiguous before Floyd sampling instead of scanned
// per draw.
const flattenThreshold = 256
