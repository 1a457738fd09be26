package sampler

import (
	"math/rand"

	"repro/internal/graph"
)

// Block is one GNN layer's bipartite sampling block in the per-layer
// (DGL/PyG-style) representation: a COO edge list between the layer input
// nodes (SrcNodes) and output nodes (DstNodes). Following the DGL
// convention, SrcNodes begins with a copy of DstNodes so that self
// representations are the first len(DstNodes) input rows.
type Block struct {
	SrcNodes []int32
	DstNodes []int32
	// EdgeSrc/EdgeDst index into SrcNodes/DstNodes respectively.
	EdgeSrc []int32
	EdgeDst []int32
}

// LayeredSample is a per-layer re-sampled k-hop neighborhood as built by
// DGL and PyG (paper Fig. 1): when a node appears in several layers, its
// one-hop neighbors are re-sampled for each layer.
type LayeredSample struct {
	// Blocks[0] feeds GNN layer 1 (deepest aggregation); Blocks[k-1] feeds
	// the final layer whose DstNodes are the targets.
	Blocks []Block
}

// NumNodesSampled returns the total node entries across all layers
// (counting re-appearances, as baseline systems must materialize them).
func (ls *LayeredSample) NumNodesSampled() int {
	n := 0
	for i := range ls.Blocks {
		n += len(ls.Blocks[i].SrcNodes)
	}
	if k := len(ls.Blocks); k > 0 {
		n += len(ls.Blocks[k-1].DstNodes)
	}
	return n
}

// NumEdgesSampled returns the total sampled edges across all layers.
func (ls *LayeredSample) NumEdgesSampled() int {
	n := 0
	for i := range ls.Blocks {
		n += len(ls.Blocks[i].EdgeSrc)
	}
	return n
}

// LayeredSampler reproduces the multi-hop sampling semantics of DGL/PyG:
// within one layer each unique node is sampled once, but nodes re-sample
// their neighbors in every layer they appear in. It is a test reference,
// not an execution path: the sampler tests count DENSE's nodes and edges
// against it (paper Table 6), and gnn's tests check the DENSE forward
// against gnn.BaselineForward over its samples.
type LayeredSampler struct {
	Adj     graph.Index
	Fanouts []int // ordered away from the targets, as in Sampler
	Dirs    graph.Directions
	rng     *rand.Rand
	floyd   graph.SampleScratch
}

// NewLayered returns a per-layer re-sampling reference sampler over adj.
func NewLayered(adj graph.Index, fanouts []int, dirs graph.Directions, seed int64) *LayeredSampler {
	return &LayeredSampler{Adj: adj, Fanouts: fanouts, Dirs: dirs, rng: rand.New(rand.NewSource(seed))}
}

// Sample builds the layered blocks for the given unique targets.
func (s *LayeredSampler) Sample(targets []int32) *LayeredSample {
	k := len(s.Fanouts)
	blocks := make([]Block, k)
	dst := targets
	for hop := 0; hop < k; hop++ {
		fanout := s.Fanouts[hop]
		// SrcNodes = DstNodes ++ newly sampled unique neighbors.
		src := make([]int32, len(dst), len(dst)*(fanout+1))
		copy(src, dst)
		index := make(map[int32]int32, len(dst)*2)
		for i, v := range dst {
			index[v] = int32(i)
		}
		var edgeSrc, edgeDst []int32
		scratch := make([]int32, 0, 2*fanout)
		for di, v := range dst {
			scratch = s.Adj.SampleNeighbors(scratch[:0], v, fanout, s.Dirs, s.rng, &s.floyd)
			for _, u := range scratch {
				si, ok := index[u]
				if !ok {
					si = int32(len(src))
					index[u] = si
					src = append(src, u)
				}
				edgeSrc = append(edgeSrc, si)
				edgeDst = append(edgeDst, int32(di))
			}
		}
		// Blocks are filled from the target side inward; block for GNN
		// layer (k-hop) sits at index k-1-hop.
		blocks[k-1-hop] = Block{SrcNodes: src, DstNodes: dst, EdgeSrc: edgeSrc, EdgeDst: edgeDst}
		dst = src
	}
	return &LayeredSample{Blocks: blocks}
}
