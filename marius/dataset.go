package marius

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/storage"
)

// FromDataset builds a Session over a preprocessed on-disk dataset
// directory (produced by cmd/mariusprep, or internal/dataset.Ingest): the
// counterpart of New for data too large to materialize as a graph.Graph.
// The task, seed and partition count come from the dataset manifest;
// options apply on top of them exactly as with New, so
//
//	sess, err := marius.FromDataset(dir, marius.WithPipeline(2))
//
// trains the prepared data with the configuration it was prepped for.
// Edge buckets are served straight off the dataset's bucket-sorted file
// (the fragment cache warms from disk on demand — no ingest-time
// re-sort), and node representations come from the dataset's feature
// shard (node classification; paged through a partition buffer under
// WithDisk, loaded into memory otherwise) or a freshly seeded learnable
// table (link prediction; its files are created under the WithDisk
// directory — the dataset itself is never written).
//
// Because ingestion already applied the same seeded partition
// relabeling New applies to an in-memory graph, a dataset session at the
// manifest seed trains byte-identically — same per-epoch losses, same
// checkpoints — to a New session over the equivalent graph with the same
// options. Overriding WithSeed trains with fresh randomness but keeps
// the prepped (manifest-seed) node layout. Overriding the partition
// count is rejected with ErrDatasetMismatch: p is baked into the bucket
// layout; re-run mariusprep prep to change it.
//
// Training is fully out-of-core, but Evaluate is not: like the
// in-memory path, it materializes the full edge list and adjacency (and
// for link prediction the full representation table) on first use. For
// datasets whose edge list exceeds RAM, train without per-epoch
// evaluation and evaluate sampled splits on a larger machine. The
// byte-identity contract covers training (losses, checkpoints), not
// fanout-sampled evaluation: the dataset session's evaluation adjacency
// is built from bucket-major edge order while a New session uses its
// original edge-list order, so sampled neighbor draws — and therefore
// sampled accuracy/MRR — can differ slightly between the two at the
// same trained state.
func FromDataset(dir string, opts ...Option) (*Session, error) {
	// The dataset files themselves must open through any injected
	// filesystem, so probe the options for WithFaults before OpenDataset
	// runs (the full application below still validates everything).
	probe := defaultOptions()
	for _, opt := range opts {
		if err := opt(&probe); err != nil {
			return nil, err
		}
	}
	ds, err := storage.OpenDatasetFS(probe.FS, dir)
	if err != nil {
		return nil, err
	}
	man := ds.Man
	var task Task
	switch man.Task {
	case TaskNC:
		task = NodeClassification()
	case TaskLP:
		task = LinkPrediction()
	default:
		return nil, optErr("FromDataset", ErrDatasetMismatch, "manifest task %q is not trainable", man.Task)
	}
	o := defaultOptions()
	o.Seed = man.Seed
	o.Partitions = man.Partitions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.Partitions != man.Partitions {
		return nil, optErr("FromDataset", ErrDatasetMismatch,
			"dataset prepared with %d partitions, options request %d", man.Partitions, o.Partitions)
	}
	if o.BufferCapacity > man.Partitions {
		return nil, optErr("FromDataset", ErrBadBuffer,
			"buffer capacity %d exceeds the dataset's %d partitions", o.BufferCapacity, man.Partitions)
	}
	if err := o.resolve(task.Name()); err != nil {
		return nil, err
	}
	if o.Relations > 0 && o.Relations != max(man.NumRels, 1) {
		return nil, optErr("WithRelations", ErrDatasetMismatch,
			"dataset has %d relation types, WithRelations(%d)", man.NumRels, o.Relations)
	}
	o.dataset = ds

	// The session graph carries only the dataset's node-level metadata
	// and held-out splits; the training edge list stays on disk.
	g := &graph.Graph{NumNodes: man.NumNodes, NumRels: man.NumRels, NumClasses: man.NumClasses}
	if g.Labels, err = ds.ReadLabels(); err != nil {
		return nil, err
	}
	if g.TrainNodes, g.ValidNodes, g.TestNodes, err = ds.ReadSplits(); err != nil {
		return nil, err
	}
	if g.ValidEdges, g.TestEdges, err = ds.ReadHeldOut(); err != nil {
		return nil, err
	}
	if err := task.Prepare(g, &o); err != nil {
		return nil, fmt.Errorf("marius: dataset %s: %w", dir, err)
	}
	return &Session{graph: g, task: task, opts: o}, nil
}
