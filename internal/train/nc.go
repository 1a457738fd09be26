package train

import (
	"math/rand"

	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
)

// NCConfig configures node-classification training. The encoder's final
// layer must output NumClasses logits.
type NCConfig struct {
	Encoder *gnn.Encoder
	Params  *nn.ParamSet

	Fanouts []int
	Dirs    graph.Directions

	BatchSize int
	Opt       nn.Optimizer
	ClipNorm  float64

	// Workers is the number of batch-construction goroutines (also the
	// kernel fan-out of the compute stage; default 4). PipelineDepth is
	// how many visits the loader runs ahead of the trainer; at 0 (the
	// default) a visit is loaded only once the previous one is done.
	Workers       int
	PipelineDepth int

	Seed int64

	// Obs, when non-nil, attaches metrics and trace spans to every
	// epoch. Purely additive: the training trajectory is identical with
	// it on or off.
	Obs *Obs
}

// ncTask is the node-classification side of a Trainer. labels index all
// graph nodes; the labeled training nodes (paper §5.2: often only 1-10%
// of the graph) are kept grouped by partition — the partitioning is fixed
// — so a visit collects its targets without scanning all of them.
type ncTask struct {
	cfg     NCConfig
	labels  []int32
	byPart  [][]int32
	done    []bool // partitions already trained on this epoch
	targets pool[[]int32]
}

// NewNC returns a node-classification trainer with defaults applied.
func NewNC(cfg NCConfig, src *Source, pol policy.Policy, labels []int32, trainNodes []int32) *Trainer {
	nc := &ncTask{cfg: cfg, labels: labels}
	nc.byPart = make([][]int32, src.Part.NumPartitions)
	nc.done = make([]bool, len(nc.byPart))
	for _, v := range trainNodes {
		p := src.Part.Of(v)
		nc.byPart[p] = append(nc.byPart[p], v)
	}
	return newTrainer(settings{
		params: cfg.Params, sampled: true, fanouts: cfg.Fanouts, dirs: cfg.Dirs,
		batchSize: cfg.BatchSize, workers: cfg.Workers, depth: cfg.PipelineDepth,
		seed: cfg.Seed, obs: cfg.Obs,
	}, src, pol, nc)
}

// active returns the visits that make a training partition resident for
// the first time this epoch, the rule load applies to done; it clears
// done for the epoch's loads. Under the §5.2 NodeCache policy that is
// the one visit; under the fallback rotation only the few visits that
// bring in a training partition, and the rest are never loaded.
func (nc *ncTask) active(visits []policy.Visit) []int {
	clear(nc.done)
	seen := make([]bool, len(nc.done))
	var walk []int
	for vi, pv := range visits {
		n := 0
		for _, p := range pv.Mem {
			if !seen[p] {
				seen[p] = true
				n += len(nc.byPart[p])
			}
		}
		if n > 0 {
			walk = append(walk, vi)
		}
	}
	return walk
}

// load collects the visit's targets: training nodes whose partition
// became resident and has not been trained on yet this epoch. Under the
// §5.2 NodeCache policy they all appear in the first visit's partitions;
// under the fallback rotation each is consumed at the first visit where
// its partition is resident. A skipped visit only makes partitions
// without training nodes resident, so marking its partitions done here
// instead, or never, changes no visit's targets.
func (nc *ncTask) load(t *Trainer, pv *policy.Visit, v *visit, vrng *rand.Rand) (int, error) {
	targets := nc.targets.get()[:0]
	for _, p := range pv.Mem {
		if !nc.done[p] {
			nc.done[p] = true
			targets = append(targets, nc.byPart[p]...)
		}
	}
	vrng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	v.targets = targets
	return len(targets), nil
}

func (nc *ncTask) release(v *visit) { nc.targets.put(v.targets) }

// prepare looks the batch's labels up; its targets are the sampled nodes.
func (nc *ncTask) prepare(t *Trainer, b *batcher, v *visit, lo, hi int, seed int64, pb *batch) []int32 {
	targets := v.targets[lo:hi]
	pb.labels = pb.labels[:0]
	for _, id := range targets {
		pb.labels = append(pb.labels, nc.labels[id])
	}
	return targets
}

// compute gathers the (fixed) features of the sampled nodes — here, not
// at build time: the visit is resident by Admit — then runs
// forward/backward and the parameter update on the arena-backed tape.
func (nc *ncTask) compute(t *Trainer, pb *batch) (loss, accuracy float64, err error) {
	tp, params := t.tape, t.binds
	h0t := tp.Alloc(len(pb.ids), t.Src.Nodes.Dim())
	if err := t.Src.Nodes.Gather(pb.ids, h0t); err != nil {
		return 0, 0, err
	}
	h0 := tp.Leaf(h0t, false) // fixed features: no base-representation updates

	logits := encode.Apply(tp, params, nc.cfg.Encoder, pb.d, nil, h0)
	lossNode := tp.SoftmaxCrossEntropy(logits, pb.labels)
	tp.Backward(lossNode)
	nn.Apply(nc.cfg.Opt, nc.cfg.Params, params, nc.cfg.ClipNorm)
	return float64(lossNode.Value.Data[0]), eval.Accuracy(logits.Value, pb.labels), nil
}
