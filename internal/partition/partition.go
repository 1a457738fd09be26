// Package partition implements the two-level graph partitioning scheme of
// MariusGNN §3 and §5.1: node base representations are split into p
// contiguous *physical* partitions; the edge list is organized into p²
// *edge buckets* — bucket (i,j) holds every edge with source in partition i
// and destination in partition j; and each epoch the physical partitions
// are randomly grouped into l *logical* partitions, the unit of transfer
// between disk and CPU memory under COMET.
package partition

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Partitioning describes a split of [0, NumNodes) node IDs into
// NumPartitions contiguous ranges. Node IDs are remapped before training
// so that contiguity encodes the partition assignment (as in Marius).
type Partitioning struct {
	NumNodes      int
	NumPartitions int
	PartSize      int // nodes per partition; the last partition may be smaller
}

// New returns a partitioning of numNodes into p contiguous partitions.
func New(numNodes, p int) Partitioning {
	if p <= 0 || numNodes <= 0 {
		panic(fmt.Sprintf("partition: invalid partitioning %d nodes / %d parts", numNodes, p))
	}
	return Partitioning{NumNodes: numNodes, NumPartitions: p, PartSize: (numNodes + p - 1) / p}
}

// Of returns the partition containing node v.
func (pt Partitioning) Of(v int32) int { return int(v) / pt.PartSize }

// Range returns the [start, end) node ID range of partition i. Trailing
// partitions may be empty when p does not divide NumNodes evenly (e.g.,
// 261 nodes in 32 partitions of 9 leave the last three partitions empty).
func (pt Partitioning) Range(i int) (int32, int32) {
	start := i * pt.PartSize
	if start > pt.NumNodes {
		start = pt.NumNodes
	}
	end := start + pt.PartSize
	if end > pt.NumNodes {
		end = pt.NumNodes
	}
	return int32(start), int32(end)
}

// Rows returns the number of nodes in partition i.
func (pt Partitioning) Rows(i int) int {
	s, e := pt.Range(i)
	return int(e - s)
}

// Bucket returns the edge-bucket coordinates of e.
func (pt Partitioning) Bucket(e graph.Edge) (int, int) {
	return pt.Of(e.Src), pt.Of(e.Dst)
}

// BucketID flattens bucket coordinates to a single index i*p + j.
func (pt Partitioning) BucketID(i, j int) int { return i*pt.NumPartitions + j }

// Buckets groups edges into the p² edge buckets; the result is indexed by
// BucketID. Bucket contents preserve input edge order.
func (pt Partitioning) Buckets(edges []graph.Edge) [][]graph.Edge {
	p := pt.NumPartitions
	counts := make([]int, p*p)
	for _, e := range edges {
		i, j := pt.Bucket(e)
		counts[pt.BucketID(i, j)]++
	}
	buckets := make([][]graph.Edge, p*p)
	for b, c := range counts {
		if c > 0 {
			buckets[b] = make([]graph.Edge, 0, c)
		}
	}
	for _, e := range edges {
		i, j := pt.Bucket(e)
		b := pt.BucketID(i, j)
		buckets[b] = append(buckets[b], e)
	}
	return buckets
}

// RandomOrder returns a node relabeling (newID[old]) that assigns nodes to
// partitions uniformly at random, the default layout for link prediction.
func RandomOrder(numNodes int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(numNodes)
	newID := make([]int32, numNodes)
	for old, nw := range perm {
		newID[old] = int32(nw)
	}
	return newID
}

// TrainFirstOrder returns a relabeling that places the training nodes
// first (so they occupy the first ⌈|train|/partSize⌉ partitions and can be
// statically cached in CPU memory, paper §5.2), followed by all remaining
// nodes in random order.
func TrainFirstOrder(numNodes int, trainNodes []int32, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	newID := make([]int32, numNodes)
	for i := range newID {
		newID[i] = -1
	}
	next := int32(0)
	for _, v := range trainNodes {
		newID[v] = next
		next++
	}
	rest := make([]int32, 0, numNodes-len(trainNodes))
	for v := 0; v < numNodes; v++ {
		if newID[v] < 0 {
			rest = append(rest, int32(v))
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, v := range rest {
		newID[v] = next
		next++
	}
	return newID
}

// Apply returns a copy of g with every node reference relabeled
// according to newID and features and labels reordered to match. g is
// only read.
func Apply(g *graph.Graph, newID []int32) *graph.Graph {
	if len(newID) != g.NumNodes {
		panic(fmt.Sprintf("partition: relabeling of %d nodes for graph with %d", len(newID), g.NumNodes))
	}
	out := *g
	remapEdges := func(edges []graph.Edge) []graph.Edge {
		edges = slices.Clone(edges)
		for i := range edges {
			edges[i].Src = newID[edges[i].Src]
			edges[i].Dst = newID[edges[i].Dst]
		}
		return edges
	}
	out.Edges = remapEdges(g.Edges)
	out.ValidEdges = remapEdges(g.ValidEdges)
	out.TestEdges = remapEdges(g.TestEdges)
	remapIDs := func(ids []int32) []int32 {
		ids = slices.Clone(ids)
		for i := range ids {
			ids[i] = newID[ids[i]]
		}
		return ids
	}
	out.TrainNodes = remapIDs(g.TrainNodes)
	out.ValidNodes = remapIDs(g.ValidNodes)
	out.TestNodes = remapIDs(g.TestNodes)
	if g.Labels != nil {
		out.Labels = make([]int32, len(g.Labels))
		for old, lab := range g.Labels {
			out.Labels[newID[old]] = lab
		}
	}
	if g.Features != nil {
		out.Features = tensor.New(g.Features.Rows, g.Features.Cols)
		for old := 0; old < g.Features.Rows; old++ {
			copy(out.Features.Row(int(newID[old])), g.Features.Row(old))
		}
	}
	return &out
}

// LogicalGrouping assigns physical partitions to logical partitions.
type LogicalGrouping struct {
	// Groups[l] lists the physical partition IDs of logical partition l.
	Groups [][]int
	// Of maps a physical partition to its logical partition.
	Of []int
}

// GroupLogical randomly groups p physical partitions into l balanced
// logical partitions (paper §5.1: regrouped at the start of every epoch,
// with no data movement). p need not divide l evenly; group sizes differ
// by at most one.
func GroupLogical(p, l int, rng *rand.Rand) LogicalGrouping {
	if l <= 0 || l > p {
		panic(fmt.Sprintf("partition: cannot group %d physical into %d logical partitions", p, l))
	}
	perm := rng.Perm(p)
	g := LogicalGrouping{Groups: make([][]int, l), Of: make([]int, p)}
	for i, phys := range perm {
		lg := i % l
		g.Groups[lg] = append(g.Groups[lg], phys)
		g.Of[phys] = lg
	}
	return g
}

// PhysicalSet expands a set of logical partition IDs to the sorted union
// of their physical partitions.
func (lg LogicalGrouping) PhysicalSet(logical []int) []int {
	var out []int
	for _, l := range logical {
		out = append(out, lg.Groups[l]...)
	}
	slices.Sort(out)
	return out
}
