package gnn

import (
	"fmt"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// blockOffsets returns per-destination-node segment offsets into the
// block's edge arrays. LayeredSampler emits edges grouped by destination
// in DstNodes order, so EdgeDst is non-decreasing and segments are
// contiguous.
func blockOffsets(b *sampler.Block) []int32 {
	offsets := make([]int32, len(b.DstNodes))
	counts := make([]int32, len(b.DstNodes))
	for _, d := range b.EdgeDst {
		counts[d]++
	}
	var run int32
	for v := range offsets {
		offsets[v] = run
		run += counts[v]
	}
	return offsets
}

// BaselineForward runs an encoder over a per-layer re-sampled
// LayeredSample using per-edge COO gather/scatter aggregation — the
// execution strategy of the DGL/PyG baselines the paper compares against
// (§7.4). It is a test reference, not a training path: with the same layer
// parameters as DENSE execution the two are numerically comparable, and
// at full fanout the tests require them to agree.
func BaselineForward(tp *tensor.Tape, params map[string]*tensor.Node, enc *Encoder, ls *sampler.LayeredSample, h0 *tensor.Node) *tensor.Node {
	if len(ls.Blocks) != len(enc.Layers) {
		panic(fmt.Sprintf("gnn: sample has %d blocks, encoder %d layers", len(ls.Blocks), len(enc.Layers)))
	}
	h := h0 // representations of Blocks[0].SrcNodes
	for i, layer := range enc.Layers {
		b := &ls.Blocks[i]
		switch l := layer.(type) {
		case *SageLayer:
			h = baselineSage(tp, params, l, b, h)
		case *GATLayer:
			h = baselineGAT(tp, params, l, b, h)
		case *GCNLayer:
			h = baselineGCN(tp, params, l, b, h)
		default:
			panic(fmt.Sprintf("gnn: BaselineForward does not support %T", layer))
		}
	}
	return h
}

func baselineSage(tp *tensor.Tape, params map[string]*tensor.Node, l *SageLayer, b *sampler.Block, h *tensor.Node) *tensor.Node {
	// Per-edge gather + scatter-add (the sparse kernels baselines use).
	msg := tp.Gather(h, b.EdgeSrc)
	agg := tp.ScatterAddRows(msg, b.EdgeDst, len(b.DstNodes))
	if l.Agg == Mean {
		agg = tp.MulColBroadcast(agg, tp.Constant(inverseCounts(tp, b, 0)))
	}
	// SrcNodes begin with DstNodes, so self rows are the prefix.
	selfRepr := tp.SliceRows(h, 0, len(b.DstNodes))
	out := tp.Add(l.Self.Apply(tp, params, selfRepr), l.Nbr.Apply(tp, params, agg))
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

func baselineGAT(tp *tensor.Tape, params map[string]*tensor.Node, l *GATLayer, b *sampler.Block, h *tensor.Node) *tensor.Node {
	offsets := blockOffsets(b)
	wh := l.W.Apply(tp, params, h)
	alAll := tp.MatMul(wh, params[l.ASrc.Name])
	arAll := tp.MatMul(wh, params[l.ADst.Name])
	alDst := tp.SliceRows(alAll, 0, len(b.DstNodes))

	eDst := tp.Gather(alDst, b.EdgeDst)
	eSrc := tp.Gather(arAll, b.EdgeSrc)
	logits := tp.LeakyReLU(tp.Add(eDst, eSrc), l.Slope)
	alpha := tp.SegmentSoftmax(logits, offsets)

	msg := tp.MulColBroadcast(tp.Gather(wh, b.EdgeSrc), alpha)
	agg := tp.SegmentSum(msg, offsets)

	selfRepr := tp.SliceRows(h, 0, len(b.DstNodes))
	out := tp.Add(agg, l.Self.Apply(tp, params, selfRepr))
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

func baselineGCN(tp *tensor.Tape, params map[string]*tensor.Node, l *GCNLayer, b *sampler.Block, h *tensor.Node) *tensor.Node {
	msg := tp.Gather(h, b.EdgeSrc)
	agg := tp.ScatterAddRows(msg, b.EdgeDst, len(b.DstNodes))
	selfRepr := tp.SliceRows(h, 0, len(b.DstNodes))
	total := tp.Add(agg, selfRepr)
	norm := tp.MulColBroadcast(total, tp.Constant(inverseCounts(tp, b, 1)))
	out := l.W.Apply(tp, params, norm)
	if l.Act {
		out = tp.ReLU(out)
	}
	return out
}

// inverseCounts returns 1/(deg+bias) per destination node (0 for isolated
// nodes when bias is 0). The buffer is tape-owned so it recycles with the
// batch on arena-backed tapes.
func inverseCounts(tp *tensor.Tape, b *sampler.Block, bias int32) *tensor.Tensor {
	counts := make([]int32, len(b.DstNodes))
	for _, d := range b.EdgeDst {
		counts[d]++
	}
	inv := tp.Alloc(len(b.DstNodes), 1)
	for v, c := range counts {
		if c+bias > 0 {
			inv.Data[v] = 1 / float32(c+bias)
		}
	}
	return inv
}
