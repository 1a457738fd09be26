package train

import (
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/graph"
)

// EvaluateNC computes classification accuracy for the given node set using
// the full-graph adjacency (held-out evaluation is always performed over
// the complete graph, regardless of the training policy), gathering base
// representations from store (Source.Table's view). The forward pass runs
// on the shared encode path — the same substrate online serving uses —
// with one sampler whose RNG stream runs continuously across batches.
func EvaluateNC(cfg *NCConfig, store encode.Store, adj *graph.Adjacency, labels []int32, nodes []int32, seed int64) (float64, error) {
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
		logits, err := fwd.Encode(store, targets)
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
