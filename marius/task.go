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

// relabel returns the copy of g a graph session trains on: relabeled
// with the task's order, the one ingest applies (TrainFirstOrder for node
// classification, RandomOrder for link prediction). g is only read.
func (o *Options) relabel(task string, g *graph.Graph) *graph.Graph {
	if task == TaskNC {
		return partition.Apply(g, partition.TrainFirstOrder(g.NumNodes, g.TrainNodes, o.Seed))
	}
	return partition.Apply(g, partition.RandomOrder(g.NumNodes, o.Seed))
}

// source is the one place a session's stores are chosen, one edge store
// and one node store over p partitions (a prepared dataset's p is its
// own, and ingest already relabeled its files). Edges are the dataset's
// bucket file, or g's edges bucketed in memory or sorted into a file
// under the WithDisk directory. Nodes are the dataset's features, held in
// memory as stored or paged through a buffer of c partitions, or a
// float32 table held in memory or written under the WithDisk directory
// and paged the same way: emb, learnable, when the task trains its table
// (link prediction), otherwise g's fixed features.
func (o *Options) source(g *graph.Graph, emb *tensor.Tensor, p, c int) (*train.Source, error) {
	pt, ds, disk := partition.New(g.NumNodes, p), o.dataset, o.Storage == OnDisk
	var edges storage.EdgeStore
	var err error
	switch {
	case ds != nil:
		edges, err = ds.EdgeStore(o.Throttle)
	case disk:
		edges, err = storage.CreateDiskEdgeStoreFS(o.FS, o.Dir, pt, g.Edges, o.Throttle)
	default:
		edges = storage.NewMemoryEdgeStore(pt, g.Edges)
	}
	if err != nil {
		return nil, err
	}
	var nodes storage.NodeStore
	table, learnable := emb, emb != nil
	if !learnable {
		table = g.Features
	}
	switch {
	case !learnable && ds != nil && disk:
		nodes, err = ds.NodeStore(c, o.Throttle)
	case !learnable && ds != nil:
		nodes, err = ds.MemoryNodeStore()
	case !disk:
		nodes = storage.NewMemoryNodeStore(table, learnable)
	default:
		nodes, err = storage.CreateDiskNodeStore(storage.DiskStoreConfig{
			Dir: o.Dir, Part: pt, Dim: table.Cols, Capacity: c, Learnable: learnable, Throttle: o.Throttle,
			Init: func(id int32, row []float32) { copy(row, table.Row(int(id))) }, FS: o.FS,
		})
	}
	if err != nil {
		edges.Close()
		return nil, err
	}
	return train.NewSource(pt, g.NumRels, nodes, edges), nil
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

	fullAdj  *graph.Adjacency         // lazily built for evaluation
	features *storage.MemoryNodeStore // NC's fixed table, read once for evaluation
}

func (t *taskBase) TrainEpoch(ctx context.Context) (train.EpochStats, error) {
	return t.tr.TrainEpoch(ctx)
}

// adj lazily builds (and caches) the full-graph evaluation adjacency
// from the session's edge store in bucket order, the order serving reads
// too, so a graph session and a dataset session over the same data
// sample the same neighbors.
func (t *taskBase) adj() (*graph.Adjacency, error) {
	if t.fullAdj == nil {
		edges, err := storage.ReadAllEdges(t.src.Edges)
		if err != nil {
			return nil, err
		}
		t.fullAdj = graph.BuildAdjacency(t.g.NumNodes, edges)
	}
	return t.fullAdj, nil
}

func (t *taskBase) Epoch() int            { return t.tr.Epoch() }
func (t *taskBase) SetEpoch(e int)        { t.tr.SetEpoch(e) }
func (t *taskBase) Params() *nn.ParamSet  { return t.ps }
func (t *taskBase) Source() *train.Source { return t.src }

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
	src, err := o.source(g, nil, p, c)
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

// Evaluate computes accuracy over the full graph. Evaluation nodes may
// live in partitions that are not resident, so it gathers from the whole
// feature table (Source.Table): with disk storage read back through the
// store once per session, since features never change. Ranking specs are
// rejected: node classification has no entity-ranking protocol.
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
	if t.features == nil {
		features, err := t.src.Table()
		if err != nil {
			return res, err
		}
		t.features = features
	}
	adj, err := t.adj()
	if err != nil {
		return res, err
	}
	acc, err := train.EvaluateNC(&t.cfg, t.features, adj, t.g.Labels, nodes, seed)
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
	dec, err := decoder.New(o.Decoder.kindName(), ps, max(g.NumRels, 1), o.Dim, rng)
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
	src, err := o.source(g, train.RandomEmbeddings(g.NumNodes, o.Dim, o.Seed), p, c)
	if err != nil {
		return err
	}
	embOpt := nn.NewSparseAdaGrad(o.EmbLR)
	embOpt.Workers = o.Workers // the write-back steps its rows on the kernels' workers
	lcfg := train.LPConfig{
		Encoder: enc, Params: ps, Decoder: dec,
		Fanouts: o.Fanouts, Dirs: graph.Both,
		BatchSize: o.BatchSize, Negatives: o.Negatives,
		DenseOpt: nn.NewAdam(o.LR), EmbOpt: embOpt, ClipNorm: 5,
		Workers: o.Workers, PipelineDepth: o.PipelineDepth, Seed: o.Seed,
		Obs: o.observe(src),
	}
	t.g, t.opts, t.src, t.ps, t.enc, t.dec = g, o, src, ps, enc, dec
	t.tr = train.NewLP(lcfg, src, pol)
	return nil
}

// Evaluate ranks every held-out edge on both sides through eval.Ranking,
// with the realistic rank 1 + greater + equal/2. By default (the sampled
// protocol) it ranks raw against every entity up to 20 000 entities, and
// beyond that against one sorted sample of 1 000 distinct candidates
// drawn once per call from Seed+3; a spec with Ranking set ranks against
// every entity, filtered when the spec asks.
func (t *lpTask) Evaluate(split Split, spec *EvalSpec) (EvalResult, error) {
	edges := t.g.ValidEdges
	if split == TestSplit {
		edges = t.g.TestEdges
	}
	res := EvalResult{Task: TaskLP, Metric: "MRR", Split: split, Protocol: ProtocolSampled}
	var ks []int
	if spec != nil && spec.Ranking {
		res.Protocol, res.Filtered, ks = ProtocolRanking, spec.Filtered, spec.Ks
	}
	if len(edges) == 0 {
		// Nothing to score: skip the full-table read and adjacency build
		// (expensive for dataset-backed sessions).
		return res, nil
	}
	// The table is learnable, so every call reads its current state.
	store, err := t.src.Table()
	if err != nil {
		return res, err
	}
	table := store.Table()
	var adj *graph.Adjacency
	if t.enc != nil || res.Filtered {
		if adj, err = t.adj(); err != nil {
			return res, err
		}
	}
	if t.enc != nil {
		// GNN models rank in encoder-output space: precompute the full
		// encoded entity table (chunked, per-chunk seeded — identical
		// at every worker count and bit-identical to the serving
		// snapshot's table for the same state and seed).
		table, err = encode.FullTable(encode.Config{
			Encoder: t.enc, Params: t.ps,
			Fanouts: t.opts.Fanouts, Dirs: graph.Both, Workers: t.opts.Workers,
		}, adj, store, t.g.NumNodes, t.opts.Dim, t.opts.Seed+4)
		if err != nil {
			return res, err
		}
	}
	cfg := eval.RankingConfig{
		Dec: t.dec, Rel: t.dec.RelParam().Value, Table: table, Ks: ks,
		BatchSize: t.opts.BatchSize, Workers: t.opts.Workers,
	}
	if res.Filtered {
		cfg.Filter = eval.NewFilter(adj, t.g.ValidEdges, t.g.TestEdges)
	}
	if res.Protocol == ProtocolSampled && t.g.NumNodes > sampledAllEntities {
		cfg.Candidates = eval.SampleCandidates(t.g.NumNodes, sampledCandidates, t.opts.Seed+3)
	}
	r := eval.Ranking(cfg, edges)
	res.Value, res.MRR, res.Hits = r.MRR, r.MRR, r.Hits
	return res, nil
}

// The sampled protocol's candidate rule: every entity up to
// sampledAllEntities (FB15k-237 scale, as the paper ranks in §7.5),
// otherwise sampledCandidates sampled ones.
const (
	sampledAllEntities = 20000
	sampledCandidates  = 1000
)

func (t *lpTask) LearnableTable() bool { return true }
