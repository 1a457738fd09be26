package train

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Trainer drives training epochs over a source and a replacement policy.
// It owns everything of the mini-batch lifecycle that does not depend on
// the task — the epoch's plan and seeds, partition loading, the visit
// index, the pipeline wiring, multi-hop sampling, tape and buffer
// recycling, statistics — and asks its task (node classification or link
// prediction, fixed by the constructor) for the rest.
type Trainer struct {
	Src *Source
	Pol policy.Policy

	task  task
	cfg   settings
	epoch int

	// seg is the last loaded visit's view. Load runs in strict plan order
	// on one goroutine (the pipeline contract), so each visit's view is
	// swapped from the previous one's, only the changed partitions'
	// fragments looked up (their missing buckets read as one request);
	// views are immutable, so visits in flight keep sampling from theirs.
	// Link prediction's training edges come from the view too.
	seg *graph.Segmented

	// Builder w always uses batchers[w], keeping its sampler workspaces
	// warm across epochs; batches recycles prepared batches after the
	// compute stage consumes them.
	batchers []batcher
	batches  pool[*batch]

	// The compute stage owns one arena and one tape, recycled every batch:
	// steady-state forward/backward allocates from the arena, not the heap.
	// Kernel parallelism follows the Workers setting.
	arena *tensor.Arena
	tape  *tensor.Tape
	binds map[string]*tensor.Node
}

// settings are the task-independent knobs of NCConfig and LPConfig.
type settings struct {
	params  *nn.ParamSet
	sampled bool // the model has a GNN encoder: batches carry multi-hop samples
	fanouts []int
	dirs    graph.Directions

	batchSize, workers, depth int

	seed int64
	obs  *Obs
}

// task is what differs between node classification and link prediction:
// which visits have training examples and what they are, the task's part
// of a prepared batch, and the training step. Both read edges the same
// way: the trainer swaps each visit's view in, and a task's examples come
// from that view (link prediction's edges) or from its own tables (node
// classification's targets), never from a read of their own.
type task interface {
	// active returns the indices, in plan order, of the visits that have
	// examples: the only ones an epoch loads and trains. It is called
	// once per epoch, before any load, and starts the task's epoch; an
	// error (a visit the task cannot train) fails the epoch before any
	// IO or step.
	active(visits []policy.Visit) ([]int, error)
	// load collects into v the examples plan visit pv trains on,
	// shuffled with vrng, and returns how many there are. It runs in
	// strict plan order over the active visits, after v's view is
	// swapped in.
	load(t *Trainer, pv *policy.Visit, v *visit, vrng *rand.Rand) (int, error)
	// prepare fills pb for examples [lo, hi) of v on builder b and
	// returns the nodes whose representations the batch needs.
	prepare(t *Trainer, b *batcher, v *visit, lo, hi int, seed int64, pb *batch) []int32
	// compute runs the training step for pb on t's freshly reset tape —
	// gather, forward, loss, backward, updates — and returns the loss and
	// the batch's train metric.
	compute(t *Trainer, pb *batch) (loss, metric float64, err error)
	// release recycles v's example buffers.
	release(v *visit)
}

func newTrainer(cfg settings, src *Source, pol policy.Policy, tk task) *Trainer {
	if cfg.workers <= 0 {
		cfg.workers = 4
	}
	cfg.depth = max(cfg.depth, 0)
	t := &Trainer{Src: src, Pol: pol, task: tk, cfg: cfg, seg: graph.NewSegmented(src.FragCache())}
	t.batchers = make([]batcher, cfg.workers)
	t.arena = tensor.NewArena()
	t.tape = tensor.NewTapeWith(tensor.NewCompute(cfg.workers, t.arena))
	return t
}

// Epoch returns the number of completed epochs.
func (t *Trainer) Epoch() int { return t.epoch }

// SetEpoch overrides the epoch counter, so a trainer restored from a
// checkpoint continues the epoch sequence (and its derived RNG stream)
// where the checkpointed run left off.
func (t *Trainer) SetEpoch(e int) { t.epoch = e }

// visit is a plan visit after the load stage: incremental index
// refreshed, training examples collected and shuffled, per-batch seeds
// derived.
type visit struct {
	adj        *graph.Segmented
	n          int // training examples
	batchSeeds []int64

	// The examples, in pooled buffers the task recycles on release: node
	// classification trains on targets; link prediction on edges, drawing
	// negatives from the resident node pool.
	targets []int32
	edges   []graph.Edge
	pool    []int32
}

// batch is a mini batch after the construction stage (Fig. 2 steps 1-3
// minus representation gathering: the compute stage gathers base
// representations at consumption time, so a batch built ahead of its turn
// still sees every earlier batch's update — pipelining introduces no
// staleness). The struct and its buffers are recycled through the
// trainer's pool; ids aliases the pooled DENSE's NodeIDs (or the batch's
// uniq buffer) until the batch is consumed.
type batch struct {
	d   *sampler.DENSE
	smp *sampler.Sampler // owner of d, for recycling
	ids []int32          // rows of h0: DENSE NodeIDs / the nodes themselves
	n   int

	nodesSampled int64
	edgesSampled int64

	labels []int32 // node classification

	// Link prediction: deduplicated endpoints and negatives, and each
	// one's row in the encoder output.
	uniq                   []int32
	srcIdx, dstIdx, negIdx []int32
	rels                   []int32
}

// batcher is one builder goroutine's batch-construction state. Samplers
// are re-seeded per batch, so a batch's sample does not depend on which
// builder constructs it; the negative scratch and the dedup table (link
// prediction) are reused across batches.
type batcher struct {
	smp  *sampler.Sampler
	neg  *sampler.NegativeSampler
	negs []int32
	ded  deduper
}

// TrainEpoch walks the policy plan once through the pipeline executor,
// checking ctx between visits and batches for clean cancellation (a nil
// ctx never cancels). The epoch counter only advances when the epoch
// completes: a canceled or failed epoch is retried from the same
// (seed, epoch)-derived RNG stream on the next call.
//
// Only the visits with examples are walked: a visit without any builds
// no batch, so it is not planned, admitted or indexed, and costs no IO.
// Skipping it changes nothing a walked visit computes — every plan visit
// still draws its seed in plan order, a visit's index view is a function
// of its own partition set, and a visit without examples updates no
// state a later one reads.
//
// Batches always compute in plan order with per-batch derived seeds, so
// the epoch's trajectory is identical at every PipelineDepth and Workers
// setting; concurrency only changes wall-clock overlap.
func (t *Trainer) TrainEpoch(ctx context.Context) (EpochStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	epoch := t.epoch + 1
	stats := EpochStats{Epoch: epoch}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	disk := t.Src.Disk
	var ioStart storage.StatsSnapshot
	if disk != nil {
		ioStart = disk.Stats().Snapshot()
	}
	start := time.Now()

	rng := epochRNG(t.cfg.seed, epoch)
	plan := t.Pol.NewEpochPlan(rng)
	planSeeds := deriveSeeds(rng, len(plan.Visits))
	// From here on visits are the walked ones, each with its own plan
	// visit's seed.
	walked := &policy.Plan{NumPartitions: plan.NumPartitions}
	var seeds []int64
	walk, err := t.task.active(plan.Visits)
	if err != nil {
		return stats, err
	}
	for _, vi := range walk {
		walked.Visits = append(walked.Visits, plan.Visits[vi])
		seeds = append(seeds, planSeeds[vi])
	}
	visits := walked.Visits
	stats.Visits, stats.Walked = len(plan.Visits), len(visits)
	if disk != nil {
		// The store compiles the epoch's node IO from the walked sets and
		// starts it now; each Admit waits only for its own visit's reads.
		sets := make([][]int, len(visits))
		for i := range visits {
			sets[i] = visits[i].Mem
		}
		disk.Plan(sets)
		defer disk.Plan(nil)
	}
	var sampleNS atomic.Int64
	var lossSum float64
	var metric eval.MeanAccumulator

	ep := pipeline.Epoch[*visit, *batch]{
		NumVisits: len(visits),
		// Load runs in the loader, up to depth visits ahead of the
		// trainer: the view swap, then example collection, shuffling and
		// seed derivation. The view and the task carry in-order state
		// across Load calls, which the executor runs sequentially.
		Load: func(vi int) (*visit, error) {
			pv := &visits[vi]
			adj, err := t.seg.Swap(pv.Mem)
			if err != nil {
				return nil, err
			}
			t.seg = adj
			v := &visit{adj: adj}
			vrng := rand.New(rand.NewSource(seeds[vi]))
			if v.n, err = t.task.load(t, pv, v, vrng); err != nil {
				return nil, err
			}
			v.batchSeeds = deriveSeeds(vrng, (v.n+t.cfg.batchSize-1)/t.cfg.batchSize)
			return v, nil
		},
		Admit: func(vi int, _ *visit) error {
			if disk == nil {
				return nil
			}
			return disk.LoadSet(visits[vi].Mem)
		},
		NumBatches: func(v *visit) int { return len(v.batchSeeds) },
		Build: func(w int, v *visit, bi int) (*batch, error) {
			s0 := time.Now()
			pb := t.prepare(w, v, bi)
			sampleNS.Add(int64(time.Since(s0)))
			return pb, nil
		},
		Compute: func(v *visit, bi int, pb *batch) error {
			c0 := time.Now()
			// Recycle the previous batch's tape nodes and arena buffers.
			// Everything the tape produces for this batch is arena-owned
			// and fully consumed (optimizer step, write-back, loss, metric)
			// before the task's compute returns.
			t.tape.Reset()
			t.arena.Reset()
			t.binds = t.cfg.params.BindInto(t.tape, t.binds)
			loss, m, err := t.task.compute(t, pb)
			stats.Compute += time.Since(c0)
			if err != nil {
				return err
			}
			lossSum += loss
			metric.Add(m, float64(pb.n))
			stats.Batches++
			stats.Examples += pb.n
			stats.NodesSampled += pb.nodesSampled
			stats.EdgesSampled += pb.edgesSampled
			t.recycle(pb)
			return nil
		},
		Release: t.task.release,
	}
	cfg := pipeline.Config{Depth: t.cfg.depth, Workers: t.cfg.workers, Instr: t.cfg.obs.instr()}
	if err := pipeline.Run(ctx, cfg, ep, &stats.Pipeline); err != nil {
		return stats, err
	}
	if disk != nil {
		disk.Plan(nil) // the last visits' evictions land in this epoch
	}

	stats.Duration = time.Since(start)
	stats.Sample = time.Duration(sampleNS.Load())
	if stats.Batches > 0 {
		stats.Loss = lossSum / float64(stats.Batches)
	}
	stats.Metric = metric.Mean()
	if disk != nil {
		stats.IO = disk.Stats().Snapshot().Sub(ioStart)
	}
	t.epoch = epoch
	t.cfg.obs.epochDone(&stats)
	return stats, nil
}

// prepare builds mini batch bi of visit v on builder w: the task's part,
// then the multi-hop sample around the nodes it names (base-representation
// gathering happens in the compute stage). The batch comes from the
// trainer's pool and allocates nothing once capacities are warm.
func (t *Trainer) prepare(w int, v *visit, bi int) *batch {
	b, c := &t.batchers[w], &t.cfg
	lo := bi * c.batchSize
	hi := min(lo+c.batchSize, v.n)
	pb := t.batches.get()
	if pb == nil {
		pb = &batch{}
	}
	pb.n = hi - lo
	seed := v.batchSeeds[bi]
	nodes := t.task.prepare(t, b, v, lo, hi, seed, pb)

	// One DENSE sample over the visit's adjacency; a model without an
	// encoder trains on the nodes' own representations. The sampler is
	// created on first use.
	if !c.sampled {
		pb.ids = nodes
		pb.nodesSampled = int64(len(nodes))
		return pb
	}
	if b.smp == nil {
		b.smp = sampler.New(v.adj, c.fanouts, c.dirs, 0)
	}
	b.smp.Reset(v.adj)
	b.smp.Reseed(seed)
	d := b.smp.Sample(nodes)
	pb.d, pb.smp, pb.ids = d, b.smp, d.NodeIDs
	pb.nodesSampled = int64(len(d.NodeIDs))
	pb.edgesSampled = int64(len(d.Nbrs))
	return pb
}

// recycle returns a consumed batch to the pool, and its DENSE to the
// sampler that built it.
func (t *Trainer) recycle(pb *batch) {
	if pb.smp != nil {
		pb.smp.Recycle(pb.d)
	}
	pb.d, pb.smp, pb.ids = nil, nil, nil
	t.batches.put(pb)
}

// deriveSeeds draws n independent seeds from rng: one per visit from the
// epoch RNG, in plan order, before any stage runs, then one per mini
// batch from each visit's own RNG. A visit's shuffles, batch splits and
// per-batch sampler seeds so come from its own seed, and its batch
// sequence is a pure function of (epoch seed, plan, visit index) — the
// property that lets the pipeline build batches ahead of (and
// concurrently with) the compute stage without changing the trajectory.
func deriveSeeds(rng *rand.Rand, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// pool recycles values between the stages of an epoch: a visit's example
// buffers go from release back to the loader, prepared batches from the
// compute stage back to the builders. Those run on different goroutines,
// so it is mutex-guarded; it is bounded — overflow falls to GC.
type pool[T any] struct {
	mu   sync.Mutex
	free []T
}

// poolCap bounds a pool; the pipeline keeps at most Workers+Depth batches
// and Depth+1 visits in flight.
const poolCap = 32

// get returns a recycled value, or the zero value when the pool is empty
// (a nil slice: append grows it).
func (p *pool[T]) get() (v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		p.free = p.free[:n-1]
	}
	return v
}

// put returns a value to the pool.
func (p *pool[T]) put(v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < poolCap {
		p.free = append(p.free, v)
	}
}
