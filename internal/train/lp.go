package train

import (
	"math/rand"

	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/sampler"
)

// LPConfig configures link-prediction training.
type LPConfig struct {
	// Encoder is the GNN encoder; nil trains a decoder-only model
	// (knowledge-graph embeddings, as Marius does).
	Encoder *gnn.Encoder
	Params  *nn.ParamSet
	Decoder decoder.Decoder

	Fanouts []int
	Dirs    graph.Directions

	BatchSize int
	Negatives int

	DenseOpt nn.Optimizer
	EmbOpt   *nn.SparseAdaGrad
	ClipNorm float64

	// Workers and PipelineDepth are as in NCConfig.
	Workers       int
	PipelineDepth int

	Seed int64

	// Obs, when non-nil, attaches metrics and trace spans to every
	// epoch. Purely additive: the training trajectory is identical with
	// it on or off.
	Obs *Obs
}

// lpTask is the link-prediction side of a Trainer. Its pools recycle the
// per-visit edge buffers and resident negative-sampling pools.
type lpTask struct {
	cfg   LPConfig
	edges pool[[]graph.Edge]
	nodes pool[[]int32]
}

// NewLP returns a link-prediction trainer with defaults applied.
func NewLP(cfg LPConfig, src *Source, pol policy.Policy) *Trainer {
	return newTrainer(settings{
		params: cfg.Params, sampled: cfg.Encoder != nil, fanouts: cfg.Fanouts, dirs: cfg.Dirs,
		batchSize: cfg.BatchSize, workers: cfg.Workers, depth: cfg.PipelineDepth,
		seed: cfg.Seed, obs: cfg.Obs,
	}, src, pol, &lpTask{cfg: cfg})
}

// active returns the visits with at least one bucket. A bucket may hold
// no edges, so this may walk a visit without examples, never skip one
// with some; a skipped visit updates no representation.
func (lp *lpTask) active(visits []policy.Visit) []int {
	var walk []int
	for vi, pv := range visits {
		if len(pv.Buckets) > 0 {
			walk = append(walk, vi)
		}
	}
	return walk
}

// load reads the training-example buckets assigned to the visit (X_i)
// and lists the resident nodes, to which negative sampling is restricted
// (paper §3).
func (lp *lpTask) load(t *Trainer, pv *policy.Visit, v *visit, vrng *rand.Rand) (int, error) {
	edges := lp.edges.get()[:0]
	var err error
	for _, b := range pv.Buckets {
		if edges, err = t.Src.Edges.ReadBucket(int(b[0]), int(b[1]), edges); err != nil {
			lp.edges.put(edges)
			return 0, err
		}
	}
	vrng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	v.edges = edges
	v.pool = t.Src.residentNodePool(lp.nodes.get()[:0], pv.Mem)
	return len(edges), nil
}

func (lp *lpTask) release(v *visit) {
	lp.edges.put(v.edges)
	lp.nodes.put(v.pool)
}

// prepare draws the batch's shared negatives and deduplicates endpoints
// and negatives into the batch's uniq/index buffers, in first-occurrence
// order over all sources, then all destinations, then the negatives. The
// unique nodes are the ones to sample around.
func (lp *lpTask) prepare(t *Trainer, b *batcher, v *visit, lo, hi int, seed int64, pb *batch) []int32 {
	edges := v.edges[lo:hi]
	pb.rels = pb.rels[:0]
	for _, e := range edges {
		pb.rels = append(pb.rels, e.Rel)
	}
	if b.neg == nil {
		b.neg = sampler.NewNegativePool(nil, 0)
	}
	b.neg.SetPool(v.pool)
	b.neg.Reseed(seed + 1)
	b.negs = b.neg.Sample(b.negs[:0], lp.cfg.Negatives)

	b.ded.reset(t.Src.NumNodes)
	pb.uniq = pb.uniq[:0]
	pb.srcIdx, pb.dstIdx, pb.negIdx = pb.srcIdx[:0], pb.dstIdx[:0], pb.negIdx[:0]
	for _, e := range edges {
		pb.srcIdx = append(pb.srcIdx, b.ded.index(e.Src, &pb.uniq))
	}
	for _, e := range edges {
		pb.dstIdx = append(pb.dstIdx, b.ded.index(e.Dst, &pb.uniq))
	}
	for _, id := range b.negs {
		pb.negIdx = append(pb.negIdx, b.ded.index(id, &pb.uniq))
	}
	return pb.uniq
}

// compute is Fig. 2 steps 4-6: gather current base representations,
// forward pass over DENSE, loss/gradients, dense parameter update, and
// write-back of representation updates. Gathering here (not at build
// time) keeps the trajectory independent of how far ahead batches are
// built: batch k+1 always sees batch k's write-back.
func (lp *lpTask) compute(t *Trainer, pb *batch) (loss, batchMRR float64, err error) {
	tp, params, cfg := t.tape, t.binds, &lp.cfg
	h0t := tp.Alloc(len(pb.ids), cfg.Decoder.Dim())
	if err := t.Src.Nodes.Gather(pb.ids, h0t); err != nil {
		return 0, 0, err
	}
	h0 := tp.Leaf(h0t, true)

	enc := encode.Apply(tp, params, cfg.Encoder, pb.d, nil, h0)
	lossNode, pos, negD, _ := cfg.Decoder.Loss(tp, params, enc, pb.srcIdx, pb.dstIdx, pb.negIdx, pb.rels)
	tp.Backward(lossNode)

	nn.Apply(cfg.DenseOpt, cfg.Params, params, cfg.ClipNorm)
	if g := h0.Grad(); g != nil && cfg.EmbOpt != nil {
		if err := t.Src.Nodes.ApplyGrads(pb.ids, g, cfg.EmbOpt); err != nil {
			return 0, 0, err
		}
	}
	return float64(lossNode.Value.Data[0]), decoder.BatchMRR(pos.Value, negD.Value), nil
}
