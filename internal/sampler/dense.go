// Package sampler implements multi-hop neighborhood sampling.
//
// Its centerpiece is DENSE (Delta Encoding of Neighborhood SamplEs), the
// data structure from MariusGNN §4: one-hop neighbors are sampled once per
// node and reused across GNN layers, and the resulting flat arrays let the
// forward pass run on dense gather/segment kernels. The package also
// provides the per-layer re-sampling of DGL/PyG (paper Fig. 1) as a test
// reference that DENSE's counts and forward pass are checked against.
package sampler

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// DENSE is the delta encoding of a k-hop neighborhood sample (paper Fig. 3).
//
// NodeIDs lays out the deltas in order [Δ0, Δ1, …, Δk]; NodeIDOffsets[d] is
// the start of Δd (k+2 entries, with a trailing sentinel = len(NodeIDs)).
// Nbrs stores the sampled one-hop neighbors for every node in [Δ1 … Δk],
// grouped per node; NbrOffsets[i] is the start of the neighbor list of the
// i-th node of NodeIDs[NodeIDOffsets[1]:]. ReprMap maps every entry of
// Nbrs to its row in NodeIDs (and therefore in the batch representation
// matrix H), added per §4.2.
type DENSE struct {
	NodeIDOffsets []int32
	NodeIDs       []int32
	NbrOffsets    []int32
	Nbrs          []int32
	ReprMap       []int32

	// Layers is k, the number of sampled hops.
	Layers int
	// layer tracks how many AdvanceLayer calls have been applied.
	layer int

	// buf retains the full-capacity backing arrays across reuse:
	// AdvanceLayer re-slices and shifts the public slices in place, so a
	// recycled DENSE restores them from buf and refills without
	// allocating (see Sampler.Recycle).
	buf denseBuf
}

// denseBuf is the private backing storage of a pooled DENSE.
type denseBuf struct {
	nodeIDOffsets, nodeIDs, nbrOffsets, nbrs, reprMap []int32
}

// NumNodes returns the current number of node IDs in the structure.
func (d *DENSE) NumNodes() int { return len(d.NodeIDs) }

// NumSampledEdges returns the current number of sampled neighbor entries.
func (d *DENSE) NumSampledEdges() int { return len(d.Nbrs) }

// Delta returns the node IDs of delta group i (0 = deepest) as a view.
func (d *DENSE) Delta(i int) []int32 {
	return d.NodeIDs[d.NodeIDOffsets[i]:d.NodeIDOffsets[i+1]]
}

// NumDeltas returns the number of remaining delta groups.
func (d *DENSE) NumDeltas() int { return len(d.NodeIDOffsets) - 1 }

// Targets returns the target nodes (the last delta group, Δk).
func (d *DENSE) Targets() []int32 {
	return d.NodeIDs[d.NodeIDOffsets[len(d.NodeIDOffsets)-2]:]
}

// OutputStart returns the row index (into NodeIDs) where the current
// layer's outputs begin: everything after the first delta group has its
// representation recomputed each layer (paper §4.2 Step 1).
func (d *DENSE) OutputStart() int { return int(d.NodeIDOffsets[1]) }

// SegmentOffsets returns the neighbor segment offsets aligned with the
// layer output rows, for use with tensor segment kernels.
func (d *DENSE) SegmentOffsets() []int32 { return d.NbrOffsets }

// AdvanceLayer applies paper Algorithm 2: after computing layer i's
// outputs, the deepest delta (Δ_{i-1}) and the one-hop neighbors belonging
// to Δ_i are no longer needed and are dropped, and ReprMap/NbrOffsets are
// shifted so the same forward-pass code serves the next layer.
func (d *DENSE) AdvanceLayer() {
	if d.layer >= d.Layers-1 {
		panic("sampler: AdvanceLayer called past the final layer")
	}
	d.layer++
	delta0 := d.NodeIDOffsets[1]                      // len(Δ_{i-1})
	delta1 := d.NodeIDOffsets[2] - d.NodeIDOffsets[1] // len(Δ_i)
	nbrCut := d.NbrOffsets[delta1]                    // len(Δ_i_nbrs)

	d.Nbrs = d.Nbrs[nbrCut:]
	d.ReprMap = d.ReprMap[nbrCut:]
	for i := range d.ReprMap {
		d.ReprMap[i] -= delta0
	}
	d.NbrOffsets = d.NbrOffsets[delta1:]
	for i := range d.NbrOffsets {
		d.NbrOffsets[i] -= nbrCut
	}
	d.NodeIDs = d.NodeIDs[delta0:]
	d.NodeIDOffsets = d.NodeIDOffsets[1:]
	for i := range d.NodeIDOffsets {
		d.NodeIDOffsets[i] -= delta0
	}
}

// Validate checks the structural invariants of the encoding; it is used by
// tests and returns a descriptive error on violation.
func (d *DENSE) Validate() error {
	if len(d.NodeIDOffsets) < 2 {
		return fmt.Errorf("dense: need at least one delta group")
	}
	if d.NodeIDOffsets[0] != 0 || int(d.NodeIDOffsets[len(d.NodeIDOffsets)-1]) != len(d.NodeIDs) {
		return fmt.Errorf("dense: NodeIDOffsets must span NodeIDs")
	}
	for i := 1; i < len(d.NodeIDOffsets); i++ {
		if d.NodeIDOffsets[i] < d.NodeIDOffsets[i-1] {
			return fmt.Errorf("dense: NodeIDOffsets not monotone at %d", i)
		}
	}
	seen := make(map[int32]struct{}, len(d.NodeIDs))
	for _, v := range d.NodeIDs {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("dense: duplicate node ID %d", v)
		}
		seen[v] = struct{}{}
	}
	numWithNbrs := len(d.NodeIDs) - int(d.NodeIDOffsets[1])
	if len(d.NbrOffsets) != numWithNbrs {
		return fmt.Errorf("dense: NbrOffsets len %d != nodes with neighbors %d", len(d.NbrOffsets), numWithNbrs)
	}
	if numWithNbrs > 0 && d.NbrOffsets[0] != 0 {
		return fmt.Errorf("dense: NbrOffsets must start at 0")
	}
	for i := 1; i < len(d.NbrOffsets); i++ {
		if d.NbrOffsets[i] < d.NbrOffsets[i-1] {
			return fmt.Errorf("dense: NbrOffsets not monotone at %d", i)
		}
	}
	if len(d.ReprMap) != len(d.Nbrs) {
		return fmt.Errorf("dense: ReprMap len %d != Nbrs len %d", len(d.ReprMap), len(d.Nbrs))
	}
	for i, nbr := range d.Nbrs {
		rm := d.ReprMap[i]
		if rm < 0 || int(rm) >= len(d.NodeIDs) {
			return fmt.Errorf("dense: ReprMap[%d]=%d out of range", i, rm)
		}
		if d.NodeIDs[rm] != nbr {
			return fmt.Errorf("dense: ReprMap[%d] points to node %d, want %d", i, d.NodeIDs[rm], nbr)
		}
	}
	return nil
}

// Sampler builds DENSE structures from an adjacency index (either the
// from-scratch *graph.Adjacency or the incremental *graph.Segmented — both
// expose identical neighbor ordering through graph.Index).
//
// It keeps reusable workspaces — a per-node position/stamp table, per-hop
// frontier and neighbor arenas, and a Floyd sampling scratch — plus a
// free list of recycled DENSE results, so steady-state Sample calls
// allocate nothing once capacities are warm. A Sampler is not safe for
// concurrent Sample calls — each pipeline worker owns one — but Recycle
// may be called from another goroutine (the compute stage returns
// consumed batches there).
type Sampler struct {
	Adj     graph.Index
	Fanouts []int // per layer, ordered away from the targets: Fanouts[0] is the layer closest to the targets (hop 1)
	Dirs    graph.Directions
	rng     *rand.Rand

	pos      []int32  // node ID -> index within its delta, valid when stamp matches
	posDelta []int16  // node ID -> sampling-order delta index, valid when stamp matches
	stamp    []uint32 // generation stamp per node
	curGen   uint32

	floyd   graph.SampleScratch // Floyd sampling workspace
	scratch []int32             // one-hop neighbor scratch

	// Per-hop workspaces, in sampling order (Δk first): deltas holds the
	// k+1 frontier headers (deltas[0] aliases the caller's targets),
	// hopDeltas/hopNbrs/hopCounts own the grown buffers for hops 1..k.
	deltas     [][]int32
	hopDeltas  [][]int32
	hopNbrs    [][]int32
	hopCounts  [][]int32
	deltaStart []int32

	mu   sync.Mutex
	free []*DENSE
}

// freeCap bounds the recycled-DENSE free list; the pipeline keeps at most
// Workers+Depth batches in flight, so a small pool reaches steady state.
const freeCap = 16

// New returns a DENSE sampler over adj. fanouts[i] is the maximum number of
// neighbors per node per direction at hop i+1 from the targets.
func New(adj graph.Index, fanouts []int, dirs graph.Directions, seed int64) *Sampler {
	if len(fanouts) == 0 {
		panic("sampler: need at least one fanout")
	}
	return &Sampler{
		Adj:     adj,
		Fanouts: fanouts,
		Dirs:    dirs,
		rng:     rand.New(rand.NewSource(seed)),
		pos:     make([]int32, adj.NumNodes()),
		stamp:   make([]uint32, adj.NumNodes()),
	}
}

// Reseed re-seeds the sampler's RNG in place. The pipelined trainer
// derives one seed per mini batch and reseeds before sampling it, so a
// batch's sample is a pure function of (adjacency, targets, seed) — the
// same no matter which worker builds it or in what order.
func (s *Sampler) Reseed(seed int64) { s.rng.Seed(seed) }

// Reset swaps in a new adjacency (e.g., after a partition-buffer swap).
func (s *Sampler) Reset(adj graph.Index) {
	s.Adj = adj
	if len(s.pos) < adj.NumNodes() {
		s.pos = make([]int32, adj.NumNodes())
		s.stamp = make([]uint32, adj.NumNodes())
		s.curGen = 0
	}
}

// Recycle returns a consumed DENSE to the sampler's free list so the next
// Sample call reuses its backing arrays. The caller must not touch d (or
// any view into it) afterward. Safe to call from a different goroutine
// than Sample; recycling is optional — unrecycled results fall to GC.
func (s *Sampler) Recycle(d *DENSE) {
	if d == nil {
		return
	}
	s.mu.Lock()
	if len(s.free) < freeCap {
		s.free = append(s.free, d)
	}
	s.mu.Unlock()
}

// take pops a recycled DENSE or makes a fresh one.
func (s *Sampler) take() *DENSE {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		d := s.free[n-1]
		s.free = s.free[:n-1]
		return d
	}
	return &DENSE{}
}

// ensureInt32 returns a slice of length n reusing buf's capacity.
func ensureInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, n+n/2+8)
	}
	return buf[:n]
}

// Sample implements paper Algorithm 1 for the given unique target node
// IDs: k rounds of one-hop sampling over the shrinking delta frontier,
// reusing previously-sampled neighbors, plus ReprMap construction. The
// result's arrays belong to the sampler's recycle pool: they are valid
// until the DENSE is passed back to Recycle.
func (s *Sampler) Sample(targets []int32) *DENSE {
	k := len(s.Fanouts)
	s.curGen++
	if s.curGen == 0 { // stamp wrapped; invalidate everything
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.curGen = 1
	}

	// deltas[0] corresponds to Δk (targets); deltas[j] to Δ_{k-j}.
	for len(s.hopDeltas) < k {
		s.hopDeltas = append(s.hopDeltas, nil)
		s.hopNbrs = append(s.hopNbrs, nil)
		s.hopCounts = append(s.hopCounts, nil)
	}
	s.deltas = append(s.deltas[:0], targets)

	if len(s.posDelta) < s.Adj.NumNodes() {
		s.posDelta = make([]int16, s.Adj.NumNodes())
	}
	for i, v := range targets {
		s.stamp[v] = s.curGen
		s.pos[v] = int32(i)
		s.posDelta[v] = 0
	}

	for hop := 0; hop < k; hop++ {
		frontier := s.deltas[hop]
		fanout := s.Fanouts[hop]
		nbrs := s.hopNbrs[hop][:0]
		counts := s.hopCounts[hop][:0]
		next := s.hopDeltas[hop][:0]
		for _, v := range frontier {
			s.scratch = s.Adj.SampleNeighbors(s.scratch[:0], v, fanout, s.Dirs, s.rng, &s.floyd)
			counts = append(counts, int32(len(s.scratch)))
			for _, u := range s.scratch {
				nbrs = append(nbrs, u)
				if s.stamp[u] != s.curGen {
					// First time this node appears anywhere in the sample:
					// it joins the next (deeper) delta (paper line 7).
					s.stamp[u] = s.curGen
					s.pos[u] = int32(len(next))
					s.posDelta[u] = int16(hop + 1)
					next = append(next, u)
				}
			}
		}
		s.hopNbrs[hop] = nbrs
		s.hopCounts[hop] = counts
		s.hopDeltas[hop] = next
		s.deltas = append(s.deltas, next)
	}

	// Finalize into a pooled DENSE: lay out NodeIDs as [Δ0, Δ1, …, Δk] =
	// reverse of sampling order, compute absolute positions, then build
	// NbrOffsets/Nbrs for [Δ1 … Δk] and ReprMap.
	d := s.take()
	numDeltas := len(s.deltas) // k+1
	s.deltaStart = ensureInt32(s.deltaStart, numDeltas)
	total := int32(0)
	// deltas[j] holds Δ_{k-j}; final order is deltas[k], deltas[k-1], …, deltas[0].
	for j := numDeltas - 1; j >= 0; j-- {
		s.deltaStart[j] = total
		total += int32(len(s.deltas[j]))
	}
	nodeIDs := ensureInt32(d.buf.nodeIDs, int(total))
	nodeIDOffsets := ensureInt32(d.buf.nodeIDOffsets, numDeltas+1)
	for j := numDeltas - 1; j >= 0; j-- {
		copy(nodeIDs[s.deltaStart[j]:], s.deltas[j])
	}
	for g := 0; g < numDeltas; g++ {
		// Group g in final order is deltas[numDeltas-1-g].
		nodeIDOffsets[g] = s.deltaStart[numDeltas-1-g]
	}
	nodeIDOffsets[numDeltas] = total

	// Neighbor groups in final order: Δ1's nbrs first … Δk's last, i.e.
	// sampling order reversed (hopNbrs[k-1] first).
	var totalNbrs int
	for hop := 0; hop < k; hop++ {
		totalNbrs += len(s.hopNbrs[hop])
	}
	nbrs := ensureInt32(d.buf.nbrs, totalNbrs)[:0]
	nbrOffsets := ensureInt32(d.buf.nbrOffsets, int(total)-len(s.deltas[numDeltas-1]))[:0]
	for j := k - 1; j >= 0; j-- {
		running := int32(len(nbrs))
		for _, c := range s.hopCounts[j] {
			nbrOffsets = append(nbrOffsets, running)
			running += c
		}
		nbrs = append(nbrs, s.hopNbrs[j]...)
	}
	reprMap := ensureInt32(d.buf.reprMap, len(nbrs))
	for i, u := range nbrs {
		reprMap[i] = s.deltaStart[int(s.posDelta[u])] + s.pos[u]
	}

	d.buf = denseBuf{
		nodeIDOffsets: nodeIDOffsets, nodeIDs: nodeIDs,
		nbrOffsets: nbrOffsets, nbrs: nbrs, reprMap: reprMap,
	}
	d.NodeIDOffsets = nodeIDOffsets
	d.NodeIDs = nodeIDs
	d.NbrOffsets = nbrOffsets
	d.Nbrs = nbrs
	d.ReprMap = reprMap
	d.Layers = k
	d.layer = 0
	return d
}
