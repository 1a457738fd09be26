// Package gnn implements GNN encoder layers that compute directly on the
// DENSE data structure with dense kernels (paper §4.2, Algorithm 3), plus
// the per-edge COO execution of the DGL/PyG baselines as a test reference.
//
// Layers implemented: GraphSage (mean or sum aggregation), GAT (segment
// softmax attention), and GCN. All layers share one calling convention so
// encoders of any depth reuse the same code, exactly as DENSE's
// Algorithm 2 update enables in the paper.
package gnn

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Aggregation selects a neighborhood reduction.
type Aggregation int

const (
	// Mean averages neighbor representations (GraphSage default).
	Mean Aggregation = iota
	// Sum adds neighbor representations (paper Algorithm 3's example).
	Sum
)

// Layer is one GNN layer operating on DENSE. Apply consumes the
// representations h aligned with d.NodeIDs and returns representations for
// d.NodeIDs[d.OutputStart():]. The caller advances d between layers.
type Layer interface {
	Apply(tp *tensor.Tape, params map[string]*tensor.Node, d *sampler.DENSE, h *tensor.Node) *tensor.Node
	// OutDim reports the layer output dimensionality.
	OutDim() int
}

// SageLayer is a GraphSage layer:
//
//	h'_v = act(W_self·h_v + W_nbr·AGG({h_u : u ∈ sampled nbrs(v)}))
type SageLayer struct {
	Self, Nbr *nn.Linear
	Agg       Aggregation
	Act       bool // apply ReLU (disabled on the final layer)
	outDim    int
}

// NewSage registers a GraphSage layer's parameters in ps.
func NewSage(ps *nn.ParamSet, name string, in, out int, agg Aggregation, act bool, rng *rand.Rand) *SageLayer {
	return &SageLayer{
		Self:   nn.NewLinear(ps, name+".self", in, out, true, rng),
		Nbr:    nn.NewLinear(ps, name+".nbr", in, out, false, rng),
		Agg:    agg,
		Act:    act,
		outDim: out,
	}
}

// OutDim implements Layer.
func (l *SageLayer) OutDim() int { return l.outDim }

// Apply implements Layer using Algorithm 3: gather neighbor rows through
// ReprMap and reduce them per segment in one fused kernel (the gathered
// [|Nbrs| x d] matrix — the largest intermediate of the forward pass — is
// never materialized), then combine with self rows.
func (l *SageLayer) Apply(tp *tensor.Tape, params map[string]*tensor.Node, d *sampler.DENSE, h *tensor.Node) *tensor.Node {
	var nbrAgg *tensor.Node
	if l.Agg == Mean {
		nbrAgg = tp.GatherSegmentMean(h, d.ReprMap, d.SegmentOffsets())
	} else {
		nbrAgg = tp.GatherSegmentSum(h, d.ReprMap, d.SegmentOffsets())
	}
	selfRepr := tp.SliceRows(h, d.OutputStart(), h.Value.Rows)
	out := tp.Add(l.Self.Apply(tp, params, selfRepr), l.Nbr.Apply(tp, params, nbrAgg))
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

// GATLayer is a graph attention layer. Attention logits use the standard
// GATv1 decomposition e_vu = LeakyReLU(aₗ·Wh_v + aᵣ·Wh_u); weights are a
// softmax per neighborhood segment. The self representation enters through
// a separate linear term rather than a synthetic self-loop edge, which
// keeps the segment layout identical to GraphSage.
type GATLayer struct {
	W      *nn.Linear
	Self   *nn.Linear
	ASrc   *nn.Param // [out x 1]
	ADst   *nn.Param // [out x 1]
	Slope  float32   // LeakyReLU negative slope
	Act    bool
	outDim int
}

// NewGAT registers a GAT layer's parameters in ps.
func NewGAT(ps *nn.ParamSet, name string, in, out int, act bool, rng *rand.Rand) *GATLayer {
	return &GATLayer{
		W:      nn.NewLinear(ps, name+".W", in, out, false, rng),
		Self:   nn.NewLinear(ps, name+".self", in, out, true, rng),
		ASrc:   ps.NewGlorot(name+".aSrc", out, 1, rng),
		ADst:   ps.NewGlorot(name+".aDst", out, 1, rng),
		Slope:  0.2,
		Act:    act,
		outDim: out,
	}
}

// OutDim implements Layer.
func (l *GATLayer) OutDim() int { return l.outDim }

// segmentIndex expands segment offsets into a per-row segment ID array:
// row r of the neighbor list belongs to output node segIdx[r].
func segmentIndex(offsets []int32, total int) []int32 {
	idx := make([]int32, total)
	for s := 0; s < len(offsets); s++ {
		end := total
		if s+1 < len(offsets) {
			end = int(offsets[s+1])
		}
		for r := int(offsets[s]); r < end; r++ {
			idx[r] = int32(s)
		}
	}
	return idx
}

// Apply implements Layer.
func (l *GATLayer) Apply(tp *tensor.Tape, params map[string]*tensor.Node, d *sampler.DENSE, h *tensor.Node) *tensor.Node {
	wh := l.W.Apply(tp, params, h) // [L x out] for all current nodes
	// Attention contributions: per-destination aₗ·Wh_v over output nodes,
	// per-source aᵣ·Wh_u over all nodes.
	alAll := tp.MatMul(wh, params[l.ASrc.Name]) // [L x 1]
	arAll := tp.MatMul(wh, params[l.ADst.Name]) // [L x 1]
	alOut := tp.SliceRows(alAll, d.OutputStart(), h.Value.Rows)

	segIdx := segmentIndex(d.SegmentOffsets(), len(d.Nbrs))
	eDst := tp.Gather(alOut, segIdx)    // one logit term per neighbor entry
	eSrc := tp.Gather(arAll, d.ReprMap) // aligned with Nbrs
	logits := tp.LeakyReLU(tp.Add(eDst, eSrc), l.Slope)
	alpha := tp.SegmentSoftmax(logits, d.SegmentOffsets())

	msg := tp.MulColBroadcast(tp.Gather(wh, d.ReprMap), alpha)
	agg := tp.SegmentSum(msg, d.SegmentOffsets())

	selfRepr := tp.SliceRows(h, d.OutputStart(), h.Value.Rows)
	out := tp.Add(agg, l.Self.Apply(tp, params, selfRepr))
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

// GCNLayer applies a shared-weight convolution over the closed
// neighborhood: h'_v = act(W · mean(h_v ∪ {h_u})).
type GCNLayer struct {
	W      *nn.Linear
	Act    bool
	outDim int
}

// NewGCN registers a GCN layer's parameters in ps.
func NewGCN(ps *nn.ParamSet, name string, in, out int, act bool, rng *rand.Rand) *GCNLayer {
	return &GCNLayer{W: nn.NewLinear(ps, name+".W", in, out, true, rng), Act: act, outDim: out}
}

// OutDim implements Layer.
func (l *GCNLayer) OutDim() int { return l.outDim }

// Apply implements Layer.
func (l *GCNLayer) Apply(tp *tensor.Tape, params map[string]*tensor.Node, d *sampler.DENSE, h *tensor.Node) *tensor.Node {
	nbrSum := tp.GatherSegmentSum(h, d.ReprMap, d.SegmentOffsets())
	selfRepr := tp.SliceRows(h, d.OutputStart(), h.Value.Rows)
	total := tp.Add(nbrSum, selfRepr)
	// Normalize by closed-neighborhood size.
	offs := d.SegmentOffsets()
	inv := tp.Alloc(total.Value.Rows, 1)
	for s := 0; s < total.Value.Rows; s++ {
		end := len(d.Nbrs)
		if s+1 < len(offs) {
			end = int(offs[s+1])
		}
		inv.Data[s] = 1 / float32(end-int(offs[s])+1)
	}
	norm := tp.MulColBroadcast(total, tp.Constant(inv))
	out := l.W.Apply(tp, params, norm)
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

// Encoder stacks layers over one DENSE sample, applying the Algorithm 2
// update between layers. The returned representations correspond exactly
// to the sample's target nodes.
type Encoder struct {
	Layers []Layer
}

// Forward runs the encoder. d is consumed (advanced in place).
func (e *Encoder) Forward(tp *tensor.Tape, params map[string]*tensor.Node, d *sampler.DENSE, h0 *tensor.Node) *tensor.Node {
	if d.Layers != len(e.Layers) {
		panic(fmt.Sprintf("gnn: DENSE sampled for %d layers, encoder has %d", d.Layers, len(e.Layers)))
	}
	h := h0
	for i, l := range e.Layers {
		h = l.Apply(tp, params, d, h)
		if i < len(e.Layers)-1 {
			d.AdvanceLayer()
		}
	}
	return h
}

// OutDim returns the final layer's output dimensionality.
func (e *Encoder) OutDim() int { return e.Layers[len(e.Layers)-1].OutDim() }

// Encoder kind names: the strings checkpoints record in
// ckpt.ModelMeta.Kind, so a forward-only loader rebuilds the same encoder.
const (
	KindSage = "sage"
	KindGAT  = "gat"
	KindGCN  = "gcn"
)

// Dims sizes an encoder of the given depth: the input width, hidden for
// every inner layer, then the output width.
func Dims(in, hidden, out, layers int) []int {
	dims := []int{in}
	for i := 0; i < layers-1; i++ {
		dims = append(dims, hidden)
	}
	return append(dims, out)
}

// New builds the named encoder over dims, registering freshly initialized
// parameters in ps. Unknown kinds return an error.
func New(kind string, ps *nn.ParamSet, dims []int, rng *rand.Rand) (*Encoder, error) {
	switch kind {
	case KindSage:
		return BuildSage(ps, dims, Mean, rng), nil
	case KindGAT:
		return BuildGAT(ps, dims, rng), nil
	case KindGCN:
		return BuildGCN(ps, dims, rng), nil
	default:
		return nil, fmt.Errorf("gnn: unknown encoder kind %q", kind)
	}
}

// BuildSage constructs a GraphSage encoder with the given hidden sizes.
// dims has length layers+1: input dim followed by each layer's output dim.
func BuildSage(ps *nn.ParamSet, dims []int, agg Aggregation, rng *rand.Rand) *Encoder {
	enc := &Encoder{}
	for i := 0; i+1 < len(dims); i++ {
		act := i+2 < len(dims)
		enc.Layers = append(enc.Layers, NewSage(ps, fmt.Sprintf("sage%d", i), dims[i], dims[i+1], agg, act, rng))
	}
	return enc
}

// BuildGAT constructs a GAT encoder with the given dims.
func BuildGAT(ps *nn.ParamSet, dims []int, rng *rand.Rand) *Encoder {
	enc := &Encoder{}
	for i := 0; i+1 < len(dims); i++ {
		act := i+2 < len(dims)
		enc.Layers = append(enc.Layers, NewGAT(ps, fmt.Sprintf("gat%d", i), dims[i], dims[i+1], act, rng))
	}
	return enc
}

// BuildGCN constructs a GCN encoder with the given dims.
func BuildGCN(ps *nn.ParamSet, dims []int, rng *rand.Rand) *Encoder {
	enc := &Encoder{}
	for i := 0; i+1 < len(dims); i++ {
		act := i+2 < len(dims)
		enc.Layers = append(enc.Layers, NewGCN(ps, fmt.Sprintf("gcn%d", i), dims[i], dims[i+1], act, rng))
	}
	return enc
}
