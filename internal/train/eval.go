package train

import (
	"math/rand"

	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// EvaluateNC computes classification accuracy for the given node set using
// the full-graph adjacency (held-out evaluation is always performed over
// the complete graph, regardless of the training policy). The forward
// pass runs on the shared encode path — the same substrate online serving
// uses — with one sampler whose RNG stream runs continuously across
// batches.
func EvaluateNC(cfg *NCConfig, src *Source, adj *graph.Adjacency, labels []int32, nodes []int32, seed int64) (float64, error) {
	if len(nodes) == 0 {
		return 0, nil
	}
	acc := eval.MeanAccumulator{}
	fwd := encode.New(encode.Config{
		Encoder: cfg.Encoder, Params: cfg.Params,
		Fanouts: cfg.Fanouts, Dirs: cfg.Dirs, Workers: cfg.Workers,
	}, adj, seed)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 1024
	}
	for lo := 0; lo < len(nodes); lo += batch {
		hi := min(lo+batch, len(nodes))
		targets := nodes[lo:hi]
		logits, err := fwd.Encode(src.Nodes, targets)
		if err != nil {
			return 0, err
		}
		batchLabels := make([]int32, len(targets))
		for i, v := range targets {
			batchLabels[i] = labels[v]
		}
		acc.Add(eval.Accuracy(logits.Value, batchLabels), float64(len(targets)))
	}
	return acc.Mean(), nil
}

// LPEvalConfig configures link-prediction evaluation.
type LPEvalConfig struct {
	Encoder   *gnn.Encoder // nil for decoder-only models
	Params    *nn.ParamSet
	Decoder   decoder.Decoder
	Fanouts   []int
	Dirs      graph.Directions
	Negatives int // negatives per batch; 0 ranks against all entities
	BatchSize int
	Workers   int // kernel parallelism; <= 0 means GOMAXPROCS
	Seed      int64
}

// LPEvalStats aggregates a sampled link-prediction evaluation: the mean
// eval loss (batch path; 0 on the decoder-only full-rank fast path, which
// computes no loss), MRR, and Hits@{1,10}.
type LPEvalStats struct {
	Loss float64
	MRR  float64
	Hits map[int]float64
}

// lpHitsKs are the Hits@k cutoffs the sampled protocol reports.
var lpHitsKs = []int{1, 10}

// EvaluateLP computes MRR and Hits@k over the given edges. With
// Negatives == 0 the positive is ranked against every entity (feasible
// for FB15k-237-scale graphs, as the paper does in §7.5); otherwise
// against a shared sampled negative set per batch.
//
// emb must be the full base-representation table (use DiskNodeStore.ReadAll
// for disk-backed training) and adj the full-graph adjacency.
func EvaluateLP(cfg LPEvalConfig, emb *tensor.Tensor, adj *graph.Adjacency, edges []graph.Edge) (LPEvalStats, error) {
	stats := LPEvalStats{Hits: make(map[int]float64, len(lpHitsKs))}
	if len(edges) == 0 {
		return stats, nil
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	numNodes := emb.Rows

	if cfg.Negatives == 0 && cfg.Encoder == nil {
		// Decoder-only full ranking: score (src, rel) against all entities.
		relTable := cfg.Decoder.RelParam().Value
		var sum float64
		hits := make(map[int]int, len(lpHitsKs))
		for _, e := range edges {
			scores := decoder.ScoreAll(cfg.Decoder, emb.Row(int(e.Src)), relTable.Row(int(e.Rel)), emb)
			rank := decoder.FullRank(scores, e.Dst)
			sum += 1 / rank
			for _, k := range lpHitsKs {
				if rank <= float64(k) {
					hits[k]++
				}
			}
		}
		stats.MRR = sum / float64(len(edges))
		for _, k := range lpHitsKs {
			stats.Hits[k] = float64(hits[k]) / float64(len(edges))
		}
		return stats, nil
	}

	negCount := cfg.Negatives
	fullRank := negCount == 0
	if fullRank {
		negCount = numNodes // encode every entity per batch (small graphs only)
	}
	mrr := eval.MeanAccumulator{}
	loss := eval.MeanAccumulator{}
	hits := make(map[int]*eval.MeanAccumulator, len(lpHitsKs))
	for _, k := range lpHitsKs {
		hits[k] = &eval.MeanAccumulator{}
	}
	fwd := encode.New(encode.Config{
		Encoder: cfg.Encoder, Params: cfg.Params,
		Fanouts: cfg.Fanouts, Dirs: cfg.Dirs, Workers: cfg.Workers,
	}, adj, cfg.Seed)
	store := encode.TensorStore{T: emb}
	var ded deduper
	for lo := 0; lo < len(edges); lo += cfg.BatchSize {
		hi := min(lo+cfg.BatchSize, len(edges))
		batch := edges[lo:hi]
		rels := make([]int32, len(batch))
		for i, e := range batch {
			rels[i] = e.Rel
		}
		// Endpoints and negatives deduplicated in first-occurrence order:
		// all sources, then all destinations, then the negatives (every
		// entity when ranking against all of them).
		ded.reset(numNodes)
		var unique []int32
		srcIdx, dstIdx, negIdx := make([]int32, len(batch)), make([]int32, len(batch)), make([]int32, negCount)
		for i, e := range batch {
			srcIdx[i] = ded.index(e.Src, &unique)
		}
		for i, e := range batch {
			dstIdx[i] = ded.index(e.Dst, &unique)
		}
		for i := range negIdx {
			neg := int32(i)
			if !fullRank {
				neg = int32(rng.Intn(numNodes))
			}
			negIdx[i] = ded.index(neg, &unique)
		}

		enc, err := fwd.Encode(store, unique)
		if err != nil {
			return stats, err
		}
		l, pos, negD, batchMRR := cfg.Decoder.Loss(fwd.Tape(), fwd.Binds(), enc, srcIdx, dstIdx, negIdx, rels)
		w := float64(len(batch))
		loss.Add(float64(l.Value.Data[0]), w)
		mrr.Add(batchMRR, w)
		for _, k := range lpHitsKs {
			hits[k].Add(decoder.HitsAtK(pos.Value, negD.Value, k), w)
		}
	}
	stats.Loss = loss.Mean()
	stats.MRR = mrr.Mean()
	for _, k := range lpHitsKs {
		stats.Hits[k] = hits[k].Mean()
	}
	return stats, nil
}
