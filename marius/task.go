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
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/train"
)

// layout resolves the physical partition count p, the buffer capacity c
// and the logical partition count l for a session over nodes and edges
// whose base representations are dim elements of elemBytes bytes each (0
// means float32). In memory p defaults to 4 and c = l = p. On disk every
// value set through options is kept (a prepared dataset's p always is)
// and the §6 auto-tuner fills the rest: a tuned c is clamped to [2, p],
// and a tuned l by which COMET cannot group p and c falls back to p.
// Without a COMET plan to group (node classification, WithPolicyImpl) an
// unset l is p, and the tuner runs only for p or c.
func (o *Options) layout(task string, nodes, edges, dim, elemBytes int) (p, c, l int, err error) {
	p, c, l = o.Partitions, o.BufferCapacity, o.LogicalPartitions
	if o.Storage == InMemory {
		if p == 0 {
			p = 4
		}
		return p, p, p, nil
	}
	if l == 0 && p > 0 && (task == TaskNC || o.PolicyImpl != nil) {
		l = p
	}
	if p > 0 && c > 0 && l > 0 {
		return p, c, l, nil
	}
	tuned, err := autotune.Tune(autotune.Input{
		NumNodes: nodes, NumEdges: edges, Dim: dim, NodeElemBytes: elemBytes,
		CPUBytes: o.CPUBytes, BlockBytes: o.BlockBytes,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if p == 0 {
		p = tuned.P
	}
	if c == 0 {
		c = min(max(tuned.C, 2), p)
	}
	if l == 0 {
		if l = tuned.L; (policy.Comet{P: p, L: l, C: c}).Validate() != nil {
			l = p
		}
	}
	return p, c, l, nil
}

// numEdges is the session's training edge count: the graph's, or the
// prepared dataset's, whose edges stay on disk.
func (o *Options) numEdges(g *graph.Graph) int {
	if o.dataset != nil {
		return int(o.dataset.Man.NumEdges)
	}
	return len(g.Edges)
}

// source builds the session's storage. A dataset session serves the
// dataset's files, which ingest already relabeled. A graph session first
// relabels g with the task's order, the one ingest applies
// (TrainFirstOrder for node classification, RandomOrder for link
// prediction), then splits it into p partitions, held in memory or paged
// through a disk buffer of c. emb, when non-nil, seeds a learnable table
// (link prediction); nil serves the node features.
func (o *Options) source(task string, g *graph.Graph, emb *tensor.Tensor, p, c int) (*train.Source, error) {
	if o.dataset != nil {
		return train.NewDatasetSource(o.dataset, train.DatasetSourceConfig{
			InMemory: o.Storage == InMemory, Capacity: c,
			Learnable: emb != nil, WorkDir: o.Dir, InitTable: emb, Throttle: o.Throttle, FS: o.FS,
		})
	}
	if task == TaskNC {
		partition.Apply(g, partition.TrainFirstOrder(g.NumNodes, g.TrainNodes, o.Seed))
	} else {
		partition.Apply(g, partition.RandomOrder(g.NumNodes, o.Seed))
	}
	pt := partition.New(g.NumNodes, p)
	table := emb
	if table == nil {
		table = g.Features
	}
	if o.Storage == InMemory {
		return train.NewMemorySource(g, pt, table), nil
	}
	return train.NewDiskSource(g, pt, table.Cols, train.DiskSourceConfig{
		Dir: o.Dir, Capacity: c, Learnable: emb != nil, InitTable: table, Throttle: o.Throttle, FS: o.FS,
	})
}

// newEncoder builds the WithModel encoder from in to out features.
func (o *Options) newEncoder(ps *nn.ParamSet, in, out int, rng *rand.Rand) (*gnn.Encoder, error) {
	enc, err := gnn.New(o.Model.kindName(), ps, gnn.Dims(in, o.Dim, out, o.Layers), rng)
	if err != nil {
		return nil, optErr("WithModel", ErrBadValue, "%v", err)
	}
	return enc, nil
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

// Prepare builds the trainer the same way for a graph and a prepared
// dataset: resolve the layout, build the encoder, then the source. Sharing
// the one path is what keeps the two sessions byte-identical.
func (t *ncTask) Prepare(g *graph.Graph, o *Options) error {
	if t.tr != nil {
		return optErr("New", ErrBadValue, "task already prepared; tasks are single-use")
	}
	features, featDim, elemBytes := g.Features != nil, g.FeatureDim(), 0
	if ds := o.dataset; ds != nil {
		// Quantized tables swap fewer bytes per partition, which the §6
		// cost model sees through the element size.
		features, featDim, elemBytes = ds.Man.Features != nil, ds.Man.FeatureDim, ds.Man.FeatureElemBytes()
	}
	if !features || g.Labels == nil || len(g.TrainNodes) == 0 {
		return &OptionError{Option: "NodeClassification",
			Err: fmt.Errorf("%w: node classification needs features, labels and training nodes", ErrTaskGraph)}
	}
	p, c, _, err := o.layout(TaskNC, g.NumNodes, o.numEdges(g), featDim, elemBytes)
	if err != nil {
		return err
	}
	ps := nn.NewParamSet()
	enc, err := o.newEncoder(ps, featDim, g.NumClasses, rand.New(rand.NewSource(o.Seed)))
	if err != nil {
		return err
	}
	src, err := o.source(TaskNC, g, nil, p, c)
	if err != nil {
		return err
	}
	var pol policy.Policy = policy.InMemory{P: p}
	if o.PolicyImpl != nil {
		pol = o.PolicyImpl
	} else if o.Storage == OnDisk {
		// Training nodes occupy the leading partitions (TrainFirstOrder).
		trainParts := max((len(g.TrainNodes)+src.Part.PartSize-1)/src.Part.PartSize, 1)
		pol = policy.NodeCache{P: p, C: c, TrainParts: trainParts}
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

// Prepare builds the trainer the same way for a graph and a prepared
// dataset: resolve the layout, build the encoder, decoder and policy, then
// the source, so no error path has storage to close.
func (t *lpTask) Prepare(g *graph.Graph, o *Options) error {
	if t.tr != nil {
		return optErr("New", ErrBadValue, "task already prepared; tasks are single-use")
	}
	p, c, l, err := o.layout(TaskLP, g.NumNodes, o.numEdges(g), o.Dim, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ps := nn.NewParamSet()
	var enc *gnn.Encoder
	if o.Model != DistMultOnly {
		if enc, err = o.newEncoder(ps, o.Dim, o.Dim, rng); err != nil {
			return err
		}
	}
	numRels := o.numRels(g)
	if numRels < max(g.NumRels, 1) {
		return optErr("WithRelations", ErrBadValue,
			"graph has %d relation types, relation table sized %d", g.NumRels, numRels)
	}
	dec, err := decoder.New(o.Decoder.kindName(), ps, numRels, o.Dim, rng)
	if err != nil {
		return optErr("WithDecoder", ErrBadValue, "%v", err)
	}

	var pol policy.Policy = policy.InMemory{P: p}
	switch {
	case o.PolicyImpl != nil:
		pol = o.PolicyImpl
	case o.Storage == InMemory:
	case o.Policy == BETA:
		pol = policy.Beta{P: p, C: c}
	default:
		comet := policy.Comet{P: p, L: l, C: c}
		if err := comet.Validate(); err != nil {
			return &OptionError{Option: "WithDisk", Err: fmt.Errorf("%w: %v", ErrBadBuffer, err)}
		}
		pol = comet
	}

	// The learnable table starts from the same seeded rows in every
	// session; a dataset session creates its files under the WithDisk
	// directory, never in the read-only dataset.
	src, err := o.source(TaskLP, g, train.RandomEmbeddings(g.NumNodes, o.Dim, o.Seed), p, c)
	if err != nil {
		return err
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
