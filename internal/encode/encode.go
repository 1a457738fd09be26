// Package encode is the forward-only GNN encode path shared by training
// (the trainers' compute stage and train/eval.go) and online serving
// (internal/serve): sample a k-hop DENSE neighborhood, gather base
// representations, and run the encoder forward on an arena-backed tape.
// Extracting it keeps the encoders single-sourced — serving runs exactly
// the kernels evaluation runs, so served outputs are byte-identical to
// the training-side forward pass for the same checkpoint and sample —
// without dragging the trainers' batch-recycling machinery along.
package encode

import (
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Store is the row-gather surface base representations are read from.
// storage.NodeStore satisfies it: storage.MemoryNodeStore holds a whole
// table in memory (float32, or a quantized feature table dequantized row
// by row on gather), storage.DiskNodeStore pages one through a partition
// buffer.
type Store interface {
	Dim() int
	Gather(ids []int32, out *tensor.Tensor) error
}

// Config describes the model half of a forward pass.
type Config struct {
	// Encoder is the GNN encoder; nil means identity encode (decoder-only
	// models read base representations directly).
	Encoder *gnn.Encoder
	Params  *nn.ParamSet
	Fanouts []int
	Dirs    graph.Directions
	// Workers is the kernel fan-out; <= 0 means GOMAXPROCS. Kernels are
	// bitwise deterministic at every worker count.
	Workers int
}

// Forward owns the forward-only encode state: one sampler, one arena and
// one tape, recycled every call like the training compute stage. It is
// not safe for concurrent use; each evaluation or serving dispatcher owns
// its own.
type Forward struct {
	cfg   Config
	smp   *sampler.Sampler
	arena *tensor.Arena
	tp    *tensor.Tape
	binds map[string]*tensor.Node
}

// New builds a Forward over adj. When cfg.Encoder is set, the sampler is
// seeded with seed and its RNG stream runs continuously across Sample
// calls (the evaluation contract); serving reseeds per request with
// SampleSeeded instead.
func New(cfg Config, adj graph.Index, seed int64) *Forward {
	f := &Forward{cfg: cfg}
	if cfg.Encoder != nil {
		f.smp = sampler.New(adj, cfg.Fanouts, cfg.Dirs, seed)
	}
	f.arena = tensor.NewArena()
	f.tp = tensor.NewTapeWith(tensor.NewCompute(cfg.Workers, f.arena))
	return f
}

// Tape returns the tape the last encode ran on, for decoder calls that
// extend the same batch's graph.
func (f *Forward) Tape() *tensor.Tape { return f.tp }

// Binds returns the parameter bindings of the last encode.
func (f *Forward) Binds() map[string]*tensor.Node { return f.binds }

// Sample draws the multi-hop DENSE neighborhood of targets from the
// Forward's continuous RNG stream. Targets must be unique.
func (f *Forward) Sample(targets []int32) *sampler.DENSE { return f.smp.Sample(targets) }

// SampleSeeded reseeds the sampler, then samples: the serving path, where
// a request's neighborhood must be a pure function of (adjacency,
// targets, seed) — independent of whatever was sampled before it and of
// which requests it is micro-batched with.
func (f *Forward) SampleSeeded(seed int64, targets []int32) *sampler.DENSE {
	f.smp.Reseed(seed)
	return f.smp.Sample(targets)
}

// Recycle returns a DENSE obtained from Sample/SampleSeeded to the
// sampler's free list.
func (f *Forward) Recycle(d *sampler.DENSE) { f.smp.Recycle(d) }

// EncodeDense runs the forward pass over an already-sampled DENSE: reset
// the tape and arena, gather base representations for d.NodeIDs from
// store, and encode. The returned node (one output row per target, in
// d's target order) is valid until the next encode on this Forward.
func (f *Forward) EncodeDense(store Store, d *sampler.DENSE) (*tensor.Node, error) {
	f.tp.Reset()
	f.arena.Reset()
	h0t := f.tp.Alloc(len(d.NodeIDs), store.Dim())
	if err := store.Gather(d.NodeIDs, h0t); err != nil {
		return nil, err
	}
	f.binds = f.cfg.Params.BindInto(f.tp, f.binds)
	return f.cfg.Encoder.Forward(f.tp, f.binds, d, f.tp.Constant(h0t)), nil
}

// EncodeIDs is the identity encode for decoder-only models: gather rows
// for ids and bind parameters, with no sampling or encoder forward.
func (f *Forward) EncodeIDs(store Store, ids []int32) (*tensor.Node, error) {
	f.tp.Reset()
	f.arena.Reset()
	h0t := f.tp.Alloc(len(ids), store.Dim())
	if err := store.Gather(ids, h0t); err != nil {
		return nil, err
	}
	f.binds = f.cfg.Params.BindInto(f.tp, f.binds)
	return f.tp.Constant(h0t), nil
}

// Encode samples targets from the continuous stream and encodes them
// (or, with no encoder, gathers their base rows directly): one
// evaluation batch.
func (f *Forward) Encode(store Store, targets []int32) (*tensor.Node, error) {
	if f.cfg.Encoder == nil {
		return f.EncodeIDs(store, targets)
	}
	return f.EncodeDense(store, f.Sample(targets))
}

// Apply runs the encoder forward over a training batch's DENSE sample, or
// is the identity encode for decoder-only models (d nil). A non-nil ls
// runs gnn.BaselineForward, the per-layer re-sampled test reference; no
// caller passes one. It is the single dispatch point shared by both
// trainers' compute stages.
func Apply(tp *tensor.Tape, params map[string]*tensor.Node, enc *gnn.Encoder, d *sampler.DENSE, ls *sampler.LayeredSample, h0 *tensor.Node) *tensor.Node {
	switch {
	case d != nil:
		return enc.Forward(tp, params, d, h0)
	case ls != nil:
		return gnn.BaselineForward(tp, params, enc, ls, h0)
	default:
		return h0
	}
}
