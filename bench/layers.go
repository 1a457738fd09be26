package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/bench/span"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/sampler"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/marius"
)

// layers is the traced run's layer-by-layer part: a serial reference
// epoch (depth 0, one worker) through the product's own trainer, the
// layer replay — the benchmark walking the policy plan itself over the
// same storage source, with a span around every call into a layer — run
// once without and once with the recorder, and the kernel probes.
func (r *run) layers() error {
	storeDir := filepath.Join(r.workDir, "serial")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	sess, err := marius.FromDataset(r.dataDir, r.sessionOptions(storeDir, 0, 1)...)
	if err != nil {
		return err
	}
	defer sess.Close()
	rp, err := newReplayer(r, sess)
	if err != nil {
		return err
	}

	// Cold fragment build: every visit's index swap against an empty
	// fragment cache, before anything has trained on this source.
	t0 := time.Now()
	if err := rp.swapWalk(); err != nil {
		return err
	}
	r.m["graph.frag_build_ms_cold"] = time.Since(t0).Seconds() * 1e3

	id := r.rec.Start(r.root, "train.TrainEpoch(serial)")
	st, err := sess.TrainEpoch(context.Background())
	r.rec.End(id)
	if err != nil {
		return err
	}
	serial := st.Duration.Seconds()
	r.m["pipeline.serial_epoch_s"] = serial
	r.m["pipeline.overlap_speedup"] = serial / r.m["train.epoch_s"]

	plain, _, err := rp.epoch(nil, 0)
	if err != nil {
		return err
	}
	traced, root, err := rp.epoch(r.rec, r.root)
	if err != nil {
		return err
	}
	self, err := span.SelfTimes(span.Subtree(r.rec.Spans(), root))
	if err != nil {
		return err
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	wall := traced.wall.Seconds()
	r.res.check("replay-parts-sum", within(sum.Seconds(), wall, 0.05),
		"replay self times sum to %.3fs of a %.3fs replay", sum.Seconds(), wall)

	s := func(name string) float64 { return self[name].Seconds() }
	perBatch := func(name string) float64 { return s(name) * 1e6 / float64(traced.batches) }
	r.m["policy.plan_us"] = s("policy.NewEpochPlan") * 1e6
	r.m["policy.partition_loads_per_epoch"] = float64(traced.loads)
	r.m["storage.load_busy_s"] = s("storage.LoadSet")
	r.m["storage.serial_io_share"] = s("storage.LoadSet") / serial
	r.m["storage.edge_read_busy_s"] = s("storage.ReadBucket")
	r.m["storage.gather_us_per_batch"] = perBatch("storage.Gather")
	r.m["storage.writeback_busy_s"] = s("storage.ApplyGrads") + s("storage.Flush")
	r.m["graph.swap_us_per_visit"] = s("graph.Swap") * 1e6 / float64(traced.visits)
	r.m["sampler.dense_us_per_batch"] = perBatch("sampler.Sample")
	r.m["sampler.negative_us_per_batch"] = perBatch("sampler.Negative")
	r.m["gnn.forward_us_per_batch"] = perBatch("gnn.Forward")
	r.m["decoder.loss_us_per_batch"] = perBatch("decoder.Loss")
	r.m["tensor.backward_us_per_batch"] = perBatch("tensor.Backward")
	r.m["nn.opt_us_per_batch"] = perBatch("nn.Apply")
	r.m["trace.unattributed_share"] = s("replay.epoch") / wall
	r.m["trace.replay_vs_serial_ratio"] = wall / serial
	r.m["trace.overhead_share"] = (wall - plain.wall.Seconds()) / plain.wall.Seconds()
	r.logf("replay %.3fs traced, %.3fs plain, serial epoch %.3fs, unattributed %.1f%%",
		wall, plain.wall.Seconds(), serial, 100*r.m["trace.unattributed_share"])

	r.kernelProbes()
	return nil
}

func within(a, b, tol float64) bool {
	return a >= b*(1-tol) && a <= b*(1+tol)
}

// replayer re-walks a training epoch from outside the train package,
// through public functions only: the same plan, the same storage source,
// the same sampler, encoder, decoder and optimizers, one call at a time
// so each can sit in its own span. It trains a model of its own (fresh
// parameters): the work per call is the trainer's, the trajectory is not
// compared.
type replayer struct {
	r    *run
	g    *graph.Graph
	src  *train.Source
	pol  policy.Policy
	opts marius.Options

	ps     *nn.ParamSet
	enc    *gnn.Encoder
	dec    decoder.Decoder
	opt    nn.Optimizer
	embOpt *nn.SparseAdaGrad

	arena *tensor.Arena
	tape  *tensor.Tape
	binds map[string]*tensor.Node

	smp *sampler.Sampler
	neg *sampler.NegativeSampler
	seg *graph.Segmented

	trainByPart [][]int32
	epochN      int

	// scratch, reused across batches
	edges                     []graph.Edge
	targets, pool, negs, uniq []int32
	labels, rels              []int32
	srcIdx, dstIdx, negIdx    []int32
	seen, ids                 []int32 // dedup: stamp and dense index per node
	stamp                     int32
}

func newReplayer(r *run, sess *marius.Session) (*replayer, error) {
	wl := r.wl
	rp := &replayer{r: r, g: sess.Graph(), src: sess.Task().Source(), opts: sess.Options()}
	o := rp.opts
	p := rp.src.Part.NumPartitions
	rng := rand.New(rand.NewSource(r.seed))
	rp.ps = nn.NewParamSet()
	layerDims := func(in, hidden, out int) []int {
		dims := []int{in}
		for i := 0; i < o.Layers-1; i++ {
			dims = append(dims, hidden)
		}
		return append(dims, out)
	}
	switch {
	case wl.Task == marius.TaskNC:
		rp.enc = gnn.BuildSage(rp.ps, layerDims(rp.src.Nodes.Dim(), o.Dim, rp.g.NumClasses), gnn.Mean, rng)
		rp.opt = nn.NewAdam(o.LR)
		rp.trainByPart = make([][]int32, p)
		for _, v := range rp.g.TrainNodes {
			q := rp.src.Part.Of(v)
			rp.trainByPart[q] = append(rp.trainByPart[q], v)
		}
		if wl.Disk {
			trainParts := max((len(rp.g.TrainNodes)+rp.src.Part.PartSize-1)/rp.src.Part.PartSize, 1)
			rp.pol = policy.NodeCache{P: p, C: wl.Capacity, TrainParts: trainParts}
		}
	default:
		rp.enc = gnn.BuildSage(rp.ps, layerDims(o.Dim, o.Dim, o.Dim), gnn.Mean, rng)
		dec, err := decoder.New(o.Decoder.String(), rp.ps, max(rp.g.NumRels, 1), o.Dim, rng)
		if err != nil {
			return nil, err
		}
		rp.dec = dec
		rp.opt, rp.embOpt = nn.NewAdam(o.LR), nn.NewSparseAdaGrad(o.EmbLR)
		rp.neg = sampler.NewNegativePool(nil, 0)
		if wl.Disk {
			rp.pol = policy.Comet{P: p, L: wl.Logical, C: wl.Capacity}
		}
	}
	if rp.pol == nil {
		rp.pol = policy.InMemory{P: p}
	}
	rp.arena = tensor.NewArena()
	rp.tape = tensor.NewTapeWith(tensor.NewCompute(1, rp.arena))
	rp.seg = graph.NewSegmented(rp.src.FragCache())
	rp.seen = make([]int32, rp.src.NumNodes)
	rp.ids = make([]int32, rp.src.NumNodes)
	return rp, nil
}

func (rp *replayer) plan() *policy.Plan {
	rp.epochN++
	return rp.pol.NewEpochPlan(rand.New(rand.NewSource(rp.r.seed + int64(rp.epochN)*0x9E3779B9)))
}

// swapWalk swaps the visit index through every visit of one plan.
func (rp *replayer) swapWalk() error {
	for _, v := range rp.plan().Visits {
		seg, err := rp.seg.Swap(v.Mem)
		if err != nil {
			return err
		}
		rp.seg = seg
	}
	return nil
}

// replayStats is what one replay epoch counted.
type replayStats struct {
	wall    time.Duration
	visits  int
	batches int
	loads   int
}

// epoch replays one epoch, serially: no prefetch, so every partition
// load sits whole inside its LoadSet span. rec may be nil (the untraced
// replay the tracing overhead is measured against).
func (rp *replayer) epoch(rec *span.Recorder, parent span.ID) (replayStats, span.ID, error) {
	var st replayStats
	start := time.Now()
	root := rec.Start(parent, "replay.epoch")
	call := func(name string, fn func() error) error {
		id := rec.Start(root, name)
		err := fn()
		rec.End(id)
		return err
	}

	var plan *policy.Plan
	call("policy.NewEpochPlan", func() error { plan = rp.plan(); return nil })
	st.visits, st.loads = len(plan.Visits), plan.TotalLoads()
	vrng := rand.New(rand.NewSource(rp.r.seed ^ int64(rp.epochN)))
	done := make([]bool, plan.NumPartitions)
	for vi := range plan.Visits {
		v := &plan.Visits[vi]
		if rp.src.Disk != nil {
			if err := call("storage.LoadSet", func() error { return rp.src.Disk.LoadSet(v.Mem) }); err != nil {
				return st, root, err
			}
		}
		err := call("graph.Swap", func() error {
			seg, err := rp.seg.Swap(v.Mem)
			if err == nil {
				rp.seg = seg
			}
			return err
		})
		if err != nil {
			return st, root, err
		}
		if rp.smp == nil {
			rp.smp = sampler.New(rp.seg, rp.opts.Fanouts, graph.Both, 0)
		}
		rp.smp.Reset(rp.seg)

		if rp.dec == nil {
			err = rp.visitNC(call, v, done, vrng, &st)
		} else {
			err = rp.visitLP(call, v, vrng, &st)
		}
		if err != nil {
			return st, root, err
		}
	}
	if rp.src.Disk != nil {
		if err := call("storage.Flush", rp.src.Disk.Flush); err != nil {
			return st, root, err
		}
	}
	rec.End(root, "visits", st.visits, "batches", st.batches)
	st.wall = time.Since(start)
	return st, root, nil
}

type caller func(name string, fn func() error) error

// visitNC trains on the training nodes whose partition became resident
// at this visit (the NC trainer's target rule).
func (rp *replayer) visitNC(call caller, v *policy.Visit, done []bool, vrng *rand.Rand, st *replayStats) error {
	call("train.assemble", func() error {
		rp.targets = rp.targets[:0]
		for _, p := range v.Mem {
			if !done[p] {
				done[p] = true
				rp.targets = append(rp.targets, rp.trainByPart[p]...)
			}
		}
		vrng.Shuffle(len(rp.targets), func(i, j int) { rp.targets[i], rp.targets[j] = rp.targets[j], rp.targets[i] })
		return nil
	})
	bs := rp.opts.BatchSize
	for lo := 0; lo < len(rp.targets); lo += bs {
		targets := rp.targets[lo:min(lo+bs, len(rp.targets))]
		var d *sampler.DENSE
		call("sampler.Sample", func() error {
			rp.smp.Reseed(vrng.Int63())
			d = rp.smp.Sample(targets)
			return nil
		})
		call("train.assemble", func() error {
			rp.labels = rp.labels[:0]
			for _, id := range targets {
				rp.labels = append(rp.labels, rp.g.Labels[id])
			}
			rp.resetTape()
			return nil
		})
		h0, err := rp.gather(call, d.NodeIDs, false)
		if err != nil {
			return err
		}
		var logits, loss *tensor.Node
		call("gnn.Forward", func() error {
			logits = encode.Apply(rp.tape, rp.binds, rp.enc, d, nil, h0)
			return nil
		})
		call("decoder.Loss", func() error {
			loss = rp.tape.SoftmaxCrossEntropy(logits, rp.labels)
			return nil
		})
		call("tensor.Backward", func() error { rp.tape.Backward(loss); return nil })
		call("nn.Apply", func() error { nn.Apply(rp.opt, rp.ps, rp.binds, 5); return nil })
		rp.smp.Recycle(d)
		st.batches++
	}
	return nil
}

// visitLP trains on the visit's edge buckets with negatives drawn from
// the resident partitions (the LP trainer's rule).
func (rp *replayer) visitLP(call caller, v *policy.Visit, vrng *rand.Rand, st *replayStats) error {
	rp.edges = rp.edges[:0]
	err := call("storage.ReadBucket", func() error {
		var err error
		for _, b := range v.Buckets {
			if rp.edges, err = rp.src.Edges.ReadBucket(int(b[0]), int(b[1]), rp.edges); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	call("train.assemble", func() error {
		vrng.Shuffle(len(rp.edges), func(i, j int) { rp.edges[i], rp.edges[j] = rp.edges[j], rp.edges[i] })
		rp.pool = rp.pool[:0]
		for _, p := range v.Mem {
			lo, hi := rp.src.Part.Range(p)
			for id := lo; id < hi; id++ {
				rp.pool = append(rp.pool, id)
			}
		}
		rp.neg.SetPool(rp.pool)
		return nil
	})
	bs := rp.opts.BatchSize
	for lo := 0; lo < len(rp.edges); lo += bs {
		edges := rp.edges[lo:min(lo+bs, len(rp.edges))]
		call("sampler.Negative", func() error {
			rp.neg.Reseed(vrng.Int63())
			rp.negs = rp.neg.Sample(rp.negs[:0], rp.opts.Negatives)
			return nil
		})
		var uniq []int32
		call("train.assemble", func() error {
			uniq = rp.dedup(edges)
			rp.resetTape()
			return nil
		})
		var d *sampler.DENSE
		call("sampler.Sample", func() error {
			rp.smp.Reseed(vrng.Int63())
			d = rp.smp.Sample(uniq)
			return nil
		})
		h0, err := rp.gather(call, d.NodeIDs, true)
		if err != nil {
			return err
		}
		var enc, loss *tensor.Node
		call("gnn.Forward", func() error {
			enc = encode.Apply(rp.tape, rp.binds, rp.enc, d, nil, h0)
			return nil
		})
		call("decoder.Loss", func() error {
			loss, _, _, _ = rp.dec.Loss(rp.tape, rp.binds, enc, rp.srcIdx, rp.dstIdx, rp.negIdx, rp.rels)
			return nil
		})
		call("tensor.Backward", func() error { rp.tape.Backward(loss); return nil })
		call("nn.Apply", func() error { nn.Apply(rp.opt, rp.ps, rp.binds, 5); return nil })
		if g := h0.Grad(); g != nil {
			err := call("storage.ApplyGrads", func() error { return rp.src.Nodes.ApplyGrads(d.NodeIDs, g, rp.embOpt) })
			if err != nil {
				return err
			}
		}
		rp.smp.Recycle(d)
		st.batches++
	}
	return nil
}

func (rp *replayer) resetTape() {
	rp.tape.Reset()
	rp.arena.Reset()
	rp.binds = rp.ps.BindInto(rp.tape, rp.binds)
}

func (rp *replayer) gather(call caller, ids []int32, learnable bool) (*tensor.Node, error) {
	var h0t *tensor.Tensor
	err := call("storage.Gather", func() error {
		h0t = rp.tape.Alloc(len(ids), rp.src.Nodes.Dim())
		return rp.src.Nodes.Gather(ids, h0t)
	})
	if err != nil {
		return nil, err
	}
	return rp.tape.Leaf(h0t, learnable), nil
}

// dedup maps the batch's sources, destinations and negatives to dense
// first-occurrence indices, filling srcIdx/dstIdx/negIdx/rels, and
// returns the unique node list.
func (rp *replayer) dedup(edges []graph.Edge) []int32 {
	rp.stamp++
	uniq := rp.uniq[:0]
	index := func(id int32) int32 {
		if rp.seen[id] != rp.stamp {
			rp.seen[id] = rp.stamp
			rp.ids[id] = int32(len(uniq))
			uniq = append(uniq, id)
		}
		return rp.ids[id]
	}
	rp.srcIdx, rp.dstIdx, rp.negIdx, rp.rels = rp.srcIdx[:0], rp.dstIdx[:0], rp.negIdx[:0], rp.rels[:0]
	for _, e := range edges {
		rp.srcIdx = append(rp.srcIdx, index(e.Src))
		rp.rels = append(rp.rels, e.Rel)
	}
	for _, e := range edges {
		rp.dstIdx = append(rp.dstIdx, index(e.Dst))
	}
	for _, id := range rp.negs {
		rp.negIdx = append(rp.negIdx, index(id))
	}
	rp.uniq = uniq
	return uniq
}

// kernelProbes times the dense kernels on their own at the workload's
// batch shapes: the encoder's input matmul at one and at all workers,
// and for link prediction the fused negative-scoring kernel.
func (r *run) kernelProbes() {
	rows := max(int(r.m["sampler.nodes_per_batch"]), 1)
	in := r.wl.Dim
	if r.wl.Task == marius.TaskNC {
		in = r.wl.SBM.FeatureDim
	}
	out := r.wl.Dim
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.New(rows, in), tensor.New(in, out)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	budget := r.scale(150 * time.Millisecond)
	matmul := func(workers int) float64 {
		c := tensor.NewCompute(workers, nil)
		return gflops(2*float64(rows)*float64(in)*float64(out), budget, func() { c.MatMul(a, b) })
	}
	w1, wn := matmul(1), matmul(r.procs)
	r.m["tensor.matmul_gflops_w1"] = w1
	r.m["tensor.matmul_gflops_wN"] = wn
	r.m["tensor.matmul_scaling"] = wn / w1
	r.m["tensor.negscore_gflops"] = 0
	if r.wl.Task == marius.TaskLP {
		batch, negs := r.wl.BatchSize, r.wl.Negatives
		q, table := tensor.New(batch, out), tensor.New(rows, out)
		q.RandUniform(rng, 1)
		table.RandUniform(rng, 1)
		idx := make([]int32, negs)
		for i := range idx {
			idx[i] = int32(rng.Intn(rows))
		}
		c := tensor.NewCompute(r.procs, nil)
		r.m["tensor.negscore_gflops"] = gflops(2*float64(batch)*float64(negs)*float64(out), budget,
			func() { c.GatherMatMulTB(q, table, idx) })
	}
}

// gflops runs fn repeatedly for about budget and converts the median
// call time into GFLOP/s.
func gflops(flops float64, budget time.Duration, fn func()) float64 {
	fn() // warm
	var times []float64
	for start := time.Now(); time.Since(start) < budget || len(times) < 5; {
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0).Seconds())
	}
	return flops / median(times) / 1e9
}
