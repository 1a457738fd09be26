// Package train implements MariusGNN's processing layer: the mini-batch
// lifecycle of paper Fig. 2 (steps 1-6) expressed as explicit
// produce/consume stages over the internal/pipeline executor. One epoch
// driver (Trainer.TrainEpoch) serves both tasks: it walks the visits of
// a policy's partition-visit plan that have examples (steps A-D), with
// the disk store paging their partitions on a schedule compiled from the
// walked visits, a loader preparing visits (adjacency view, examples) up
// to PipelineDepth ahead of the trainer, builder goroutines constructing
// batches from per-batch derived seeds, and the compute stage consuming
// them in plan order — the same trajectory at every depth and worker
// count. The visit's view is the one edge path: link prediction takes its
// training edges from the view's fragments, not from a read of its own.
// Node classification (nc.go) and link prediction (lp.go) supply only
// what differs: which visits have examples and what they are, their part
// of a batch, and the training step.
package train

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// epochRNG derives the RNG driving one epoch from (seed, epoch) alone, so
// an epoch's plan, shuffles and worker seeds are reproducible from the
// checkpointed seed and epoch counter with no serialized generator state.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(epoch)*0x9E3779B9))
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch    int
	Duration time.Duration
	// Sample and Compute are the summed per-batch stage durations; under
	// pipelining their total can exceed Duration.
	Sample  time.Duration
	Compute time.Duration
	Loss    float64 // mean per-batch loss
	Metric  float64 // train accuracy (NC) or train MRR (LP)
	Batches int
	// Examples is the number of training examples consumed.
	Examples int
	// NodesSampled/EdgesSampled count sampled entries across batches.
	NodesSampled int64
	EdgesSampled int64
	// IO is the node-store IO performed during the epoch (disk mode),
	// including the partition buffer's prefetch hit/miss counts.
	IO storage.StatsSnapshot
	// Visits is the number of partition sets |S| in the epoch's plan;
	// Walked is how many of them had examples and were loaded and
	// trained. The others cost no IO.
	Visits int
	Walked int
	// Pipeline reports how the executor ran the epoch: effective depth
	// and workers, visits loaded, and how long the compute stage waited
	// on loads or batch construction.
	Pipeline pipeline.Stats
}

func (s EpochStats) String() string {
	return fmt.Sprintf("epoch %d: %.2fs loss=%.4f metric=%.4f batches=%d visits=%d walked=%d io=%.1fMB",
		s.Epoch, s.Duration.Seconds(), s.Loss, s.Metric, s.Batches, s.Visits, s.Walked,
		float64(s.IO.BytesRead+s.IO.BytesWritten)/1e6)
}

// Source bundles the storage-layer handles a trainer consumes: one node
// store and one edge store over one partitioning, built by NewSource.
// Whether they live in memory or on disk, and where they come from (a
// prepared dataset or an in-memory graph), is decided before they get
// here; the trainer reads both the same way.
type Source struct {
	Part     partition.Partitioning
	NumNodes int
	NumRels  int

	Nodes storage.NodeStore
	// Disk is non-nil when Nodes is disk-backed; the trainer then hands it
	// each epoch's plan and drives partition loading through it.
	Disk  *storage.DiskNodeStore
	Edges storage.EdgeStore
	// Frags caches per-bucket CSR fragments over Edges; the trainers
	// compose their incremental visit indexes from it, and read every
	// training edge through them: it is the only path from Edges to a
	// trainer. Created by NewSource (or lazily by FragCache for
	// hand-built sources).
	Frags *storage.FragCache
}

// FragCache returns the source's fragment cache, creating one sized to
// the training window when the source was built without one: (2c)²
// buckets for a disk buffer of capacity c (resident set plus maximal
// prefetch lookahead), everything for in-memory sources.
func (src *Source) FragCache() *storage.FragCache {
	if src.Frags == nil {
		p := src.Part.NumPartitions
		capBuckets := p * p
		if src.Disk != nil {
			c := src.Disk.Capacity()
			if w := (2*c)*(2*c) + 8; w < capBuckets {
				capBuckets = w
			}
		}
		src.Frags = storage.NewFragCache(src.Edges, src.Part, capBuckets)
	}
	return src.Frags
}

// residentNodePool appends every node ID whose partition is in mem to
// dst, used to restrict negative sampling to in-memory nodes (paper §3).
func (src *Source) residentNodePool(dst []int32, mem []int) []int32 {
	for _, p := range mem {
		start, end := src.Part.Range(p)
		for id := start; id < end; id++ {
			dst = append(dst, id)
		}
	}
	return dst
}

// deduper assigns dense first-occurrence indices to node IDs using a
// generation-stamped table that allocates nothing once it spans the ID
// space (batch construction and evaluation both run it per batch).
type deduper struct {
	pos   []int32
	stamp []uint32
	gen   uint32
}

// reset starts a fresh index over the ID space [0, n).
func (d *deduper) reset(n int) {
	if len(d.pos) < n {
		d.pos = make([]int32, n)
		d.stamp = make([]uint32, n)
		d.gen = 0
	}
	d.gen++
	if d.gen == 0 { // wrapped: invalidate everything
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.gen = 1
	}
}

// index returns id's dense index, appending id to *uniq on first sight.
func (d *deduper) index(id int32, uniq *[]int32) int32 {
	if d.stamp[id] == d.gen {
		return d.pos[id]
	}
	d.stamp[id] = d.gen
	u := int32(len(*uniq))
	d.pos[id] = u
	*uniq = append(*uniq, id)
	return u
}
