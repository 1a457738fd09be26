// Extreme-scale out-of-core training (paper §7.3): the paper trains
// GraphSage + DistMult representations for the full Common Crawl 2012
// hyperlink graph (3.5B nodes, 128B edges) on one machine with 60 GB of
// RAM and an SSD, at 194k edges/sec.
//
// This example reproduces the pipeline ~1000x scaled down: a Zipf-skewed
// edge stream is written to a raw triple file without ever materializing
// the graph, the real ingest bucket-sorts it under a memory cap small
// enough to spill, node embeddings live on disk and page through a small
// partition buffer, and one COMET epoch of decoder-only DistMult training
// runs fully out of core. It prints the measured edges/sec beside the
// paper's.
//
// Run with: go run ./examples/hyperlink
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/marius"
)

func main() {
	const (
		numNodes = 1_000_000
		numEdges = 4_000_000
		dim      = 16
		p        = 16       // physical partitions
		c        = 4        // buffer capacity: 1/4 of embeddings in memory
		l        = 8        // logical partitions
		memLimit = 16 << 20 // ingest sort working set: forces spilled runs
	)
	work, err := os.MkdirTemp("", "mariusgnn-hyperlink-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// Phase 1: stream the hyperlink-like graph into a packed triple file.
	// Nothing graph-sized is ever held in memory.
	fmt.Printf("streaming %d edges over %d nodes to disk...\n", numEdges, numNodes)
	raw := filepath.Join(work, "edges.bin")
	if err := writeTriples(raw, gen.NewEdgeStream(gen.StreamConfig{
		NumNodes: numNodes, NumEdges: numEdges, ZipfS: 1.3, Seed: 1,
	})); err != nil {
		log.Fatal(err)
	}

	// Phase 2: the ingest mariusprep runs, bucket-sorting the stream
	// through an external sort capped at memLimit.
	data := filepath.Join(work, "data")
	st, err := dataset.Ingest(dataset.Config{
		Out: data, Edges: raw, Task: marius.TaskLP, Seed: 1, Partitions: p, MemLimit: memLimit,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingest: %d nodes, %d edges, %d spilled runs (%.0f MB) in %.1fs\n",
		st.NumNodes, st.NumEdges, st.SpillRuns, float64(st.BytesSpilled)/1e6, st.Duration.Seconds())

	// Phase 3: one COMET epoch of decoder-only training, as in §7.3, with
	// the embedding table on disk.
	sess, err := marius.FromDataset(data,
		marius.WithModel(marius.DistMultOnly), marius.WithDim(dim),
		marius.WithBatchSize(4096), marius.WithNegatives(128),
		marius.WithDisk(work, marius.Capacity(c), marius.LogicalPartitions(l)))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(), marius.Epochs(1))
	if err != nil {
		log.Fatal(err)
	}
	stats := res.Epochs[0]
	edgesPerSec := float64(stats.Examples) / stats.Duration.Seconds()
	fmt.Printf("epoch: %.1fs, %d edges, %.0f edges/sec, %d partition sets, IO %.1f MB\n",
		stats.Duration.Seconds(), stats.Examples, edgesPerSec, stats.Visits,
		float64(stats.IO.BytesRead+stats.IO.BytesWritten)/1e6)
	fmt.Printf("train MRR %.4f (128 shared negatives)\n", stats.Metric)
	fmt.Println("(the paper reports 194k edges/sec on a V100 GPU)")
}

// writeTriples writes the stream as the packed little-endian (src, rel,
// dst) int32 triples the ingest reads from .bin edge lists.
func writeTriples(path string, stream *gen.EdgeStream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [12]byte
	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
		for _, e := range chunk {
			binary.LittleEndian.PutUint32(rec[0:], uint32(e.Src))
			binary.LittleEndian.PutUint32(rec[4:], uint32(e.Rel))
			binary.LittleEndian.PutUint32(rec[8:], uint32(e.Dst))
			if _, err := w.Write(rec[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
