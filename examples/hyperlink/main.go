// Extreme-scale out-of-core training (paper §7.3): the paper trains
// GraphSage + DistMult representations for the full Common Crawl 2012
// hyperlink graph (3.5B nodes, 128B edges) on one machine with 60 GB of
// RAM and an SSD, at 194k edges/sec.
//
// This example reproduces the pipeline ~1000x scaled down: a Zipf-skewed
// edge stream is bucket-sorted to disk without ever materializing the
// graph, node embeddings live on disk and page through a small partition
// buffer, and one COMET epoch of decoder-only DistMult training runs
// fully out of core. It prints the measured edges/sec beside the paper's.
//
// Run with: go run ./examples/hyperlink
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/decoder"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/train"
)

func main() {
	const (
		numNodes = 1_000_000
		numEdges = 4_000_000
		dim      = 16
		p        = 16 // physical partitions
		c        = 4  // buffer capacity: 1/4 of embeddings in memory
		l        = 8  // logical partitions
	)
	dir, err := os.MkdirTemp("", "mariusgnn-hyperlink-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	pt := partition.New(numNodes, p)

	// Phase 1: stream the hyperlink-like graph to bucket-sorted disk
	// storage. Nothing graph-sized is ever held in memory.
	fmt.Printf("streaming %d edges over %d nodes to disk...\n", numEdges, numNodes)
	t0 := time.Now()
	writer, err := storage.NewStreamingEdgeWriter(dir, pt)
	if err != nil {
		log.Fatal(err)
	}
	stream := gen.NewEdgeStream(gen.StreamConfig{
		NumNodes: numNodes, NumEdges: numEdges, ZipfS: 1.3, Seed: 1,
	})
	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
		if err := writer.Append(chunk); err != nil {
			log.Fatal(err)
		}
	}
	edgeStore, err := writer.Finalize(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing done in %.1fs\n", time.Since(t0).Seconds())

	// Phase 2: disk-backed learnable embeddings.
	rng := rand.New(rand.NewSource(2))
	nodes, err := storage.CreateDiskNodeStore(storage.DiskStoreConfig{
		Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
		Init: func(id int32, row []float32) {
			for j := range row {
				row[j] = (rng.Float32()*2 - 1) * 0.1
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	src := &train.Source{
		Part: pt, NumNodes: numNodes, NumRels: 1,
		Nodes: nodes, Disk: nodes, Edges: edgeStore,
	}
	defer src.Close()

	// Phase 3: one COMET epoch of decoder-only training, as in §7.3.
	ps := nn.NewParamSet()
	dec := decoder.NewDistMult(ps, 1, dim, rng)
	tr := train.NewLP(train.LPConfig{
		Params: ps, Decoder: dec,
		BatchSize: 4096, Negatives: 128,
		DenseOpt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1),
		Workers: 4, Seed: 3,
	}, src, policy.Comet{P: p, L: l, C: c})

	stats, err := tr.TrainEpoch(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	edgesPerSec := float64(stats.Examples) / stats.Duration.Seconds()
	fmt.Printf("epoch: %.1fs, %d edges, %.0f edges/sec, %d partition sets, IO %.1f MB\n",
		stats.Duration.Seconds(), stats.Examples, edgesPerSec, stats.Visits,
		float64(stats.IO.BytesRead+stats.IO.BytesWritten)/1e6)
	fmt.Printf("train MRR %.4f (128 shared negatives)\n", stats.Metric)
	fmt.Println("(the paper reports 194k edges/sec on a V100 GPU)")
}
