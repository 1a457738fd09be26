package train

import (
	"fmt"
	"math/rand"

	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// RandomEmbeddings returns a uniformly-initialized base-representation
// table for learnable embeddings (link prediction).
func RandomEmbeddings(numNodes, dim int, seed int64) *tensor.Tensor {
	t := tensor.New(numNodes, dim)
	t.RandUniform(rand.New(rand.NewSource(seed)), 0.1)
	return t
}

// NewSource bundles a session's two stores over partitioning pt: Disk is
// set when nodes pages through a partition buffer, and the fragment cache
// is sized to match.
func NewSource(pt partition.Partitioning, numRels int, nodes storage.NodeStore, edges storage.EdgeStore) *Source {
	src := &Source{Part: pt, NumNodes: pt.NumNodes, NumRels: numRels, Nodes: nodes, Edges: edges}
	src.Disk, _ = nodes.(*storage.DiskNodeStore)
	src.FragCache()
	return src
}

// Table returns the whole node table as one in-memory store, the view
// evaluation reads: the memory store itself, or a read-only store over a
// disk table read back through its store (DiskNodeStore.MemoryView:
// flushed, throttled like every other read, and a quantized table kept as
// stored).
func (src *Source) Table() (*storage.MemoryNodeStore, error) {
	if src.Disk != nil {
		return src.Disk.MemoryView()
	}
	mem, ok := src.Nodes.(*storage.MemoryNodeStore)
	if !ok {
		return nil, fmt.Errorf("train: node store %T exposes no in-memory table", src.Nodes)
	}
	return mem, nil
}

// Close releases a source's stores.
func (src *Source) Close() error {
	err := src.Nodes.Close()
	if e := src.Edges.Close(); err == nil {
		err = e
	}
	return err
}
