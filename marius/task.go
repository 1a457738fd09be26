package marius

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/autotune"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/train"
)

func encoderDims(in, hidden, out, layers int) []int {
	dims := []int{in}
	for i := 0; i < layers-1; i++ {
		dims = append(dims, hidden)
	}
	return append(dims, out)
}

func buildEncoder(kind ModelKind, ps *nn.ParamSet, dims []int, rng *rand.Rand) (*gnn.Encoder, error) {
	switch kind {
	case GraphSage:
		return gnn.BuildSage(ps, dims, gnn.Mean, rng), nil
	case GAT:
		return gnn.BuildGAT(ps, dims, rng), nil
	case GCN:
		return gnn.BuildGCN(ps, dims, rng), nil
	default:
		return nil, optErr("WithModel", ErrBadValue, "model kind %d has no encoder", kind)
	}
}

// taskBase is the part of a built-in Task that does not depend on what
// it trains: the prepared graph, the trainer over its source, the dense
// parameters and the lazily built evaluation adjacency.
type taskBase struct {
	g    *graph.Graph
	opts *Options

	tr  *train.Trainer
	src *train.Source
	ps  *nn.ParamSet
	enc *gnn.Encoder

	fullAdj *graph.Adjacency // lazily built for evaluation
}

func (t *taskBase) TrainEpoch(ctx context.Context) (train.EpochStats, error) {
	return t.tr.TrainEpoch(ctx)
}

// adj lazily builds (and caches) the full-graph evaluation adjacency.
// Dataset-backed sessions keep no in-memory edge list, so the first
// evaluation reads the buckets back from the edge store (bucket order —
// the same flattened order the training index exposes).
func (t *taskBase) adj() (*graph.Adjacency, error) {
	if t.fullAdj == nil {
		edges := t.g.Edges
		if len(edges) == 0 && t.opts.dataset != nil {
			var err error
			if edges, err = t.src.ReadAllEdges(); err != nil {
				return nil, err
			}
		}
		t.fullAdj = graph.BuildAdjacency(t.g.NumNodes, edges)
	}
	return t.fullAdj, nil
}

func (t *taskBase) Epoch() int                { return t.tr.Epoch() }
func (t *taskBase) SetEpoch(e int)            { t.tr.SetEpoch(e) }
func (t *taskBase) Params() *nn.ParamSet      { return t.ps }
func (t *taskBase) Source() *train.Source     { return t.src }
func (t *taskBase) SetPolicy(p policy.Policy) { t.tr.Pol = p }

// NodeClassification returns the node-classification Task: GNN training
// over fixed node features with the §5.2 training-node caching policy for
// disk storage. The graph must carry Features, Labels and TrainNodes.
func NodeClassification() Task { return &ncTask{} }

type ncTask struct {
	taskBase
	cfg train.NCConfig
}

func (t *ncTask) Name() string { return TaskNC }

func (t *ncTask) Prepare(g *graph.Graph, o *Options) error {
	if t.tr != nil {
		return optErr("New", ErrBadValue, "task already prepared; tasks are single-use")
	}
	if o.dataset != nil {
		return t.prepareDataset(g, o, o.dataset)
	}
	if g.Features == nil || g.Labels == nil || len(g.TrainNodes) == 0 {
		return &OptionError{Option: "NodeClassification",
			Err: fmt.Errorf("%w: node classification needs features, labels and training nodes", ErrTaskGraph)}
	}
	rng := rand.New(rand.NewSource(o.Seed))

	p, c := o.Partitions, o.BufferCapacity
	if o.Storage == InMemory {
		if p == 0 {
			p = 4
		}
		c = p
	} else if p == 0 || c == 0 {
		tuned, err := autotune.Tune(autotune.Input{
			NumNodes: g.NumNodes, NumEdges: len(g.Edges), Dim: g.FeatureDim(),
			CPUBytes: o.CPUBytes, BlockBytes: o.BlockBytes,
		})
		if err != nil {
			return err
		}
		if p == 0 {
			p = tuned.P
		}
		if c == 0 {
			c = tuned.C
		}
	}

	pt, trainParts := train.PrepareNC(g, p, o.Seed)
	var src *train.Source
	var err error
	if o.Storage == OnDisk {
		src, err = train.NewDiskSource(g, pt, g.FeatureDim(), train.DiskSourceConfig{
			Dir: o.Dir, Capacity: c, InitTable: g.Features, Throttle: o.Throttle, FS: o.FS,
		})
		if err != nil {
			return err
		}
	} else {
		src = train.NewMemorySource(g, pt, g.Features)
	}
	return t.assemble(g, o, src, g.FeatureDim(), p, c, trainParts, rng)
}

// assemble is the shared tail of both preparation paths: it builds the
// encoder, selects the replacement policy, and constructs the trainer
// over an already-built source. Keeping it single-sourced is part of the
// byte-identity contract between in-memory and dataset sessions.
func (t *ncTask) assemble(g *graph.Graph, o *Options, src *train.Source, featDim, p, c, trainParts int, rng *rand.Rand) error {
	ps := nn.NewParamSet()
	dims := encoderDims(featDim, o.Dim, g.NumClasses, o.Layers)
	enc, err := buildEncoder(o.Model, ps, dims, rng)
	if err != nil {
		src.Close()
		return err
	}
	var pol policy.Policy
	if o.PolicyImpl != nil {
		pol = o.PolicyImpl
	} else if o.Storage == OnDisk {
		pol = policy.NodeCache{P: p, C: c, TrainParts: trainParts}
	} else {
		pol = policy.InMemory{P: p}
	}
	t.cfg = train.NCConfig{
		Encoder: enc, Params: ps,
		Fanouts: o.Fanouts, Dirs: graph.Both,
		BatchSize: o.BatchSize, Opt: nn.NewAdam(o.LR), ClipNorm: 5,
		Workers: o.Workers, PipelineDepth: o.PipelineDepth, Seed: o.Seed,
		Obs: o.observe(src),
	}
	t.g, t.opts, t.src, t.ps, t.enc = g, o, src, ps, enc
	t.tr = train.NewNC(t.cfg, src, pol, g.Labels, g.TrainNodes)
	return nil
}

// prepareDataset builds the trainer over a preprocessed dataset: no
// relabeling (the ingest step already applied it) and no edge
// materialization — buckets are served straight off the dataset files.
// g carries the dataset's metadata (labels, splits), loaded by
// FromDataset.
func (t *ncTask) prepareDataset(g *graph.Graph, o *Options, ds *storage.Dataset) error {
	man := ds.Man
	if man.Features == nil || g.Labels == nil || len(g.TrainNodes) == 0 {
		return &OptionError{Option: "FromDataset",
			Err: fmt.Errorf("%w: node classification needs features, labels and train nodes in the dataset", ErrTaskGraph)}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	pt := ds.Partitioning()
	p, c := man.Partitions, o.BufferCapacity
	if o.Storage == OnDisk && c == 0 {
		tuned, err := autotune.Tune(autotune.Input{
			NumNodes: man.NumNodes, NumEdges: int(man.NumEdges), Dim: man.FeatureDim,
			// Quantized tables swap fewer bytes per partition, which the
			// §6 cost model sees through NO.
			NodeElemBytes: man.FeatureElemBytes(),
			CPUBytes:      o.CPUBytes, BlockBytes: o.BlockBytes,
		})
		if err != nil {
			return err
		}
		// p is baked into the dataset layout; clamp the tuned capacity
		// to it.
		c = min(max(tuned.C, 2), p)
	}
	src, err := train.NewDatasetSource(ds, train.DatasetSourceConfig{
		InMemory: o.Storage == InMemory, Capacity: c, Throttle: o.Throttle, FS: o.FS,
	})
	if err != nil {
		return err
	}
	// Same formula as train.PrepareNC (which also relabels, already done
	// at ingest time): training nodes occupy the leading partitions.
	trainParts := (len(g.TrainNodes) + pt.PartSize - 1) / pt.PartSize
	if trainParts == 0 {
		trainParts = 1
	}
	return t.assemble(g, o, src, man.FeatureDim, p, c, trainParts, rng)
}

// Evaluate computes accuracy over the full graph; with disk storage the
// feature table is first read back into memory (evaluation nodes may live
// in partitions that are not resident). Ranking specs are rejected:
// node classification has no entity-ranking protocol.
func (t *ncTask) Evaluate(split Split, spec *EvalSpec) (EvalResult, error) {
	if spec != nil && spec.Ranking {
		return EvalResult{}, optErr("RankingEval", ErrBadValue,
			"ranking evaluation applies to link prediction, not node classification")
	}
	nodes, seed := t.g.ValidNodes, t.opts.Seed+1
	if split == TestSplit {
		nodes, seed = t.g.TestNodes, t.opts.Seed+2
	}
	res := EvalResult{Task: TaskNC, Metric: "accuracy", Split: split}
	if len(nodes) == 0 {
		// Nothing to score: skip the full-table read and adjacency build
		// (expensive for dataset-backed sessions).
		return res, nil
	}
	src := t.src
	if t.src.Disk != nil {
		table, err := t.src.Disk.ReadAll()
		if err != nil {
			return res, err
		}
		src = &train.Source{
			Part: t.src.Part, NumNodes: t.src.NumNodes, NumRels: t.src.NumRels,
			Nodes: storage.NewMemoryNodeStore(table), Edges: t.src.Edges,
		}
	}
	adj, err := t.adj()
	if err != nil {
		return res, err
	}
	acc, err := train.EvaluateNC(&t.cfg, src, adj, t.g.Labels, nodes, seed)
	if err != nil {
		return res, err
	}
	res.Value = acc
	return res, nil
}

func (t *ncTask) LearnableTable() bool { return false }

// LinkPrediction returns the link-prediction Task: learnable node
// embeddings (optionally GNN-encoded) scored by a DistMult, ComplEx or
// TransE decoder (WithDecoder), with COMET/BETA replacement policies for
// disk storage.
func LinkPrediction() Task { return &lpTask{} }

type lpTask struct {
	taskBase
	dec decoder.Decoder
}

func (t *lpTask) Name() string { return TaskLP }

func (t *lpTask) Prepare(g *graph.Graph, o *Options) error {
	if t.tr != nil {
		return optErr("New", ErrBadValue, "task already prepared; tasks are single-use")
	}
	if o.dataset != nil {
		return t.prepareDataset(g, o, o.dataset)
	}
	rng := rand.New(rand.NewSource(o.Seed))

	p, c, l := o.Partitions, o.BufferCapacity, o.LogicalPartitions
	if l == 0 && o.PolicyImpl != nil && p > 0 {
		l = p // unused under an explicit policy; skip the auto-tuner
	}
	if o.Storage == InMemory {
		if p == 0 {
			p = 4
		}
		c, l = p, p
	} else if p == 0 || c == 0 || l == 0 {
		tuned, err := autotune.Tune(autotune.Input{
			NumNodes: g.NumNodes, NumEdges: len(g.Edges), Dim: o.Dim,
			CPUBytes: o.CPUBytes, BlockBytes: o.BlockBytes,
		})
		if err != nil {
			return err
		}
		if p == 0 {
			p = tuned.P
		}
		if c == 0 {
			c = tuned.C
		}
		if l == 0 {
			l = tuned.L
		}
	}

	pt := train.PrepareLP(g, p, o.Seed)
	emb := train.RandomEmbeddings(g.NumNodes, o.Dim, o.Seed)
	var src *train.Source
	var err error
	if o.Storage == OnDisk {
		src, err = train.NewDiskSource(g, pt, o.Dim, train.DiskSourceConfig{
			Dir: o.Dir, Capacity: c, Learnable: true, InitTable: emb, Throttle: o.Throttle, FS: o.FS,
		})
		if err != nil {
			return err
		}
	} else {
		src = train.NewMemorySource(g, pt, emb)
	}
	return t.assemble(g, o, src, p, c, l, rng)
}

// assemble is the shared tail of both preparation paths: it builds the
// encoder/decoder, selects and validates the replacement policy, and
// constructs the trainer over an already-built source. Keeping it
// single-sourced is part of the byte-identity contract between
// in-memory and dataset sessions.
func (t *lpTask) assemble(g *graph.Graph, o *Options, src *train.Source, p, c, l int, rng *rand.Rand) error {
	ps := nn.NewParamSet()
	var enc *gnn.Encoder
	var err error
	if o.Model != DistMultOnly {
		dims := encoderDims(o.Dim, o.Dim, o.Dim, o.Layers)
		enc, err = buildEncoder(o.Model, ps, dims, rng)
		if err != nil {
			src.Close()
			return err
		}
	}
	numRels := o.numRels(g)
	if numRels < max(g.NumRels, 1) {
		src.Close()
		return optErr("WithRelations", ErrBadValue,
			"graph has %d relation types, relation table sized %d", g.NumRels, numRels)
	}
	dec, err := decoder.New(o.Decoder.kindName(), ps, numRels, o.Dim, rng)
	if err != nil {
		src.Close()
		return optErr("WithDecoder", ErrBadValue, "%v", err)
	}

	var pol policy.Policy
	if o.PolicyImpl != nil {
		pol = o.PolicyImpl
	} else if o.Storage == OnDisk {
		if o.Policy == BETA {
			pol = policy.Beta{P: p, C: c}
		} else {
			comet := policy.Comet{P: p, L: l, C: c}
			if err := comet.Validate(); err != nil {
				src.Close()
				return &OptionError{Option: "WithDisk", Err: fmt.Errorf("%w: %v", ErrBadBuffer, err)}
			}
			pol = comet
		}
	} else {
		pol = policy.InMemory{P: p}
	}

	lcfg := train.LPConfig{
		Encoder: enc, Params: ps, Decoder: dec,
		Fanouts: o.Fanouts, Dirs: graph.Both,
		BatchSize: o.BatchSize, Negatives: o.Negatives,
		DenseOpt: nn.NewAdam(o.LR), EmbOpt: nn.NewSparseAdaGrad(o.EmbLR), ClipNorm: 5,
		Workers: o.Workers, PipelineDepth: o.PipelineDepth, Seed: o.Seed,
		Obs: o.observe(src),
	}
	t.g, t.opts, t.src, t.ps, t.enc, t.dec = g, o, src, ps, enc, dec
	t.tr = train.NewLP(lcfg, src, pol)
	return nil
}

// prepareDataset builds the trainer over a preprocessed dataset. The
// learnable embedding table is initialized fresh (same seeded init as
// the in-memory path); only the edge buckets and held-out splits come
// from the dataset, which stays read-only — disk storage creates the
// embedding files under the WithDisk directory.
func (t *lpTask) prepareDataset(g *graph.Graph, o *Options, ds *storage.Dataset) error {
	man := ds.Man
	if o.Relations > 0 && o.Relations != max(man.NumRels, 1) {
		return optErr("WithRelations", ErrDatasetMismatch,
			"dataset has %d relation types, WithRelations(%d)", man.NumRels, o.Relations)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	p, c, l := man.Partitions, o.BufferCapacity, o.LogicalPartitions
	if l == 0 && o.PolicyImpl != nil {
		l = p // unused under an explicit policy; skip the auto-tuner
	}
	if o.Storage == InMemory {
		c, l = p, p
	} else if c == 0 || l == 0 {
		tuned, err := autotune.Tune(autotune.Input{
			NumNodes: man.NumNodes, NumEdges: int(man.NumEdges), Dim: o.Dim,
			CPUBytes: o.CPUBytes, BlockBytes: o.BlockBytes,
		})
		if err != nil {
			return err
		}
		// p is baked into the dataset layout: clamp the tuned capacity
		// to it, and fall back to l = p when the tuned grouping does not
		// divide it.
		if c == 0 {
			c = min(max(tuned.C, 2), p)
		}
		if l == 0 {
			if l = tuned.L; l > p || p%l != 0 {
				l = p
			}
		}
	}
	emb := train.RandomEmbeddings(man.NumNodes, o.Dim, o.Seed)
	src, err := train.NewDatasetSource(ds, train.DatasetSourceConfig{
		InMemory: o.Storage == InMemory, Capacity: c,
		Learnable: true, WorkDir: o.Dir, InitTable: emb, Throttle: o.Throttle, FS: o.FS,
	})
	if err != nil {
		return err
	}
	return t.assemble(g, o, src, p, c, l, rng)
}

// Evaluate computes sampled-negative MRR (or full ranking for small
// graphs, as the paper does on FB15k-237) by default; a spec with
// Ranking set runs the both-sides (optionally filtered) ranking protocol
// instead, reporting MRR and Hits@k.
func (t *lpTask) Evaluate(split Split, spec *EvalSpec) (EvalResult, error) {
	edges := t.g.ValidEdges
	if split == TestSplit {
		edges = t.g.TestEdges
	}
	res := EvalResult{Task: TaskLP, Metric: "MRR", Split: split, Protocol: ProtocolSampled}
	if spec != nil && spec.Ranking {
		res.Protocol, res.Filtered = ProtocolRanking, spec.Filtered
	}
	if len(edges) == 0 {
		// Nothing to score: skip the full-table read and adjacency build
		// (expensive for dataset-backed sessions).
		return res, nil
	}
	emb, err := t.embeddings()
	if err != nil {
		return res, err
	}
	adj, err := t.adj()
	if err != nil {
		return res, err
	}

	if res.Protocol == ProtocolRanking {
		table := emb
		if t.enc != nil {
			// GNN models rank in encoder-output space: precompute the full
			// encoded entity table (chunked, per-chunk seeded — identical
			// at every worker count and bit-identical to the serving
			// snapshot's table for the same state and seed).
			table, err = encode.FullTable(encode.Config{
				Encoder: t.enc, Params: t.ps,
				Fanouts: t.opts.Fanouts, Dirs: graph.Both, Workers: t.opts.Workers,
			}, adj, encode.TensorStore{T: emb}, t.g.NumNodes, t.opts.Dim, t.opts.Seed+4)
			if err != nil {
				return res, err
			}
		}
		var filter *eval.Filter
		if spec.Filtered {
			filter = eval.NewFilter(adj, t.g.ValidEdges, t.g.TestEdges)
		}
		r := eval.Ranking(eval.RankingConfig{
			Dec: t.dec, Rel: t.dec.RelParam().Value, Table: table,
			Ks: spec.Ks, Filter: filter,
			BatchSize: t.opts.BatchSize, Workers: t.opts.Workers,
		}, edges)
		res.Value, res.MRR, res.Hits = r.MRR, r.MRR, r.Hits
		return res, nil
	}

	negatives := 1000
	if t.g.NumNodes <= 20000 {
		negatives = 0 // rank against all entities
	}
	stats, err := train.EvaluateLP(train.LPEvalConfig{
		Encoder: t.enc, Params: t.ps, Decoder: t.dec,
		Fanouts: t.opts.Fanouts, Dirs: graph.Both,
		Negatives: negatives, BatchSize: t.opts.BatchSize,
		Workers: t.opts.Workers, Seed: t.opts.Seed + 3,
	}, emb, adj, edges)
	if err != nil {
		return res, err
	}
	res.Value, res.MRR, res.Loss, res.Hits = stats.MRR, stats.MRR, stats.Loss, stats.Hits
	return res, nil
}

// embeddings returns the full base-representation table, erroring (rather
// than panicking) when the node store exposes no in-memory table.
func (t *lpTask) embeddings() (*tensor.Tensor, error) {
	if t.src.Disk != nil {
		return t.src.Disk.ReadAll()
	}
	mem, ok := t.src.Nodes.(*storage.MemoryNodeStore)
	if !ok {
		return nil, fmt.Errorf("marius: node store %T exposes no in-memory table", t.src.Nodes)
	}
	return mem.Table(), nil
}

func (t *lpTask) LearnableTable() bool { return true }
