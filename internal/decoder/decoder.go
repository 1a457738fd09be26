// Package decoder implements link-prediction score functions and losses.
//
// MariusGNN scores knowledge-graph edges with a translating or factoring
// decoder over encoder outputs — DistMult (Yang et al.), ComplEx
// (Trouillon et al.) or TransE (Bordes et al.) — trained with softmax
// cross-entropy against a shared set of negative samples per batch, and
// reports filtered MRR/Hits@k.
//
// Every decoder scores through the same fused kernel: an edge query is
// folded into a single vector q (TailQueryInto/HeadQueryInto) such that a
// candidate entity e scores as ⟨q, e⟩, optionally completed with the
// squared-norm terms 2·⟨q,e⟩ − ‖q‖² − ‖e‖² when Norms reports true
// (TransE's negative squared distance, expanded). Candidate scoring is
// therefore one GatherMatMulTB launch per chunk regardless of decoder —
// the score matrix is never materialized beyond the chunk — and, because
// each fused output element is a single zero-seeded ascending dot
// product, scalar reference scorers (RefScore) reproduce the kernel
// bit for bit at every worker count.
package decoder

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Decoder kind names. These are the strings recorded in checkpoint
// manifests (ckpt.ModelMeta.Decoder) and exposed at /statz.
const (
	KindDistMult = "distmult"
	KindComplEx  = "complex"
	KindTransE   = "transe"
)

// Decoder is one link-prediction score function with its learned relation
// table. All decoders train through Loss (tape-recorded, fused negative
// scoring) and serve/evaluate through folded queries scored by ⟨q, e⟩
// (+ the norm completion when Norms is true).
type Decoder interface {
	// Kind returns the decoder kind name ("distmult", "complex", "transe").
	Kind() string
	// Dim returns the embedding dimensionality.
	Dim() int
	// RelParam returns the learned relation table parameter ([numRels x dim]).
	RelParam() *nn.Param
	// Loss computes the batched link-prediction loss with shared negatives.
	// enc holds the encoded node representations; srcIdx/dstIdx select the
	// endpoint rows of the B positive edges, rels are the edge relation
	// IDs, and negIdx selects the N negative nodes shared across the
	// batch. Both endpoints are corrupted. The returned node is the scalar
	// loss; posScores/negDst/negSrc are returned for metric computation.
	Loss(tp *tensor.Tape, params map[string]*tensor.Node, enc *tensor.Node, srcIdx, dstIdx, negIdx, rels []int32) (loss, posScores, negDst, negSrc *tensor.Node)
	// TailQueryInto folds (src, rel) into q (length Dim) such that every
	// candidate tail t scores as ⟨q, e_t⟩ (+ norm completion).
	// q must not alias src or rel.
	TailQueryInto(q, src, rel []float32)
	// HeadQueryInto folds (rel, dst) into q for ranking candidate heads.
	HeadQueryInto(q, dst, rel []float32)
	// Norms reports whether scores need the squared-norm completion
	// s = 2·dot − ‖q‖² − ‖e‖² on top of the raw dot product.
	Norms() bool
}

// New builds the named decoder, registering its relation table in ps.
// Unknown kinds and invalid (kind, dim) combinations return an error
// (ComplEx splits the embedding into real/imaginary halves and needs an
// even dim).
func New(kind string, ps *nn.ParamSet, numRels, dim int, rng *rand.Rand) (Decoder, error) {
	switch kind {
	case KindDistMult:
		return NewDistMult(ps, numRels, dim, rng), nil
	case KindComplEx:
		return NewComplEx(ps, numRels, dim, rng)
	case KindTransE:
		return NewTransE(ps, numRels, dim, rng), nil
	default:
		return nil, fmt.Errorf("decoder: unknown kind %q", kind)
	}
}

// ceLoss combines positive and corrupted scores into the symmetric
// softmax cross-entropy loss (the positive sits in column 0).
func ceLoss(tp *tensor.Tape, pos, negDst, negSrc *tensor.Node) *tensor.Node {
	lossDst := tp.SoftmaxCrossEntropy(tp.ConcatCols(pos, negDst), nil)
	lossSrc := tp.SoftmaxCrossEntropy(tp.ConcatCols(pos, negSrc), nil)
	return tp.Scale(tp.Add(lossDst, lossSrc), 0.5)
}

// SqNorm returns ‖row‖², accumulated in ascending index order.
func SqNorm(row []float32) float32 {
	var s float32
	for _, v := range row {
		s += v * v
	}
	return s
}

// TableNorms returns the per-row squared norms of t. Precomputed once per
// entity table, the norms make every TransE candidate score one fused dot
// plus a scalar completion.
func TableNorms(t *tensor.Tensor) []float32 {
	out := make([]float32, t.Rows)
	for i := range out {
		out[i] = SqNorm(t.Row(i))
	}
	return out
}

// QTableNorms returns the per-row squared norms of a quantized table,
// computed from the dequantized values so the completion matches the
// dequantizing score kernel bit for bit.
func QTableNorms(q *tensor.QTable) []float32 {
	out := make([]float32, q.Rows)
	buf := make([]float32, q.Cols)
	for i := range out {
		q.DequantRowInto(i, buf)
		out[i] = SqNorm(buf)
	}
	return out
}

// FinishScores applies the in-place norm completion
// s[i][j] = 2·s[i][j] − qn[i] − tn[idx[j]] when d.Norms() is true; a
// no-op otherwise. s holds raw fused dot products of queries against
// table[idx], qn the per-query squared norms, tn the per-table-row
// squared norms.
func FinishScores(d Decoder, s *tensor.Tensor, qn, tn []float32, idx []int32) {
	if !d.Norms() {
		return
	}
	for i := 0; i < s.Rows; i++ {
		row, q := s.Row(i), qn[i]
		for j := range row {
			row[j] = 2*row[j] - q - tn[idx[j]]
		}
	}
}

// ScoreOne scores a folded query against a single candidate row exactly
// as the fused chunk path does: one zero-seeded ascending dot, then the
// norm completion. qn/cn are the squared norms of q and cand (ignored
// unless d.Norms()).
func ScoreOne(d Decoder, q, cand []float32, qn, cn float32) float32 {
	var dot float32
	for j, v := range q {
		dot += v * cand[j]
	}
	if !d.Norms() {
		return dot
	}
	return 2*dot - qn - cn
}

// ScoreAll scores (src, rel) against every row of emb (all entities) and
// returns the scores; used for full-ranking MRR on small graphs
// (paper §7.5 uses all negatives on FB15k-237) and as the serving
// reference. Bitwise identical to the fused chunked path.
func ScoreAll(d Decoder, srcRow, relRow []float32, emb *tensor.Tensor) []float32 {
	out := make([]float32, emb.Rows)
	q := make([]float32, d.Dim())
	d.TailQueryInto(q, srcRow, relRow)
	var qn float32
	if d.Norms() {
		qn = SqNorm(q)
	}
	for v := 0; v < emb.Rows; v++ {
		row := emb.Row(v)
		var cn float32
		if d.Norms() {
			cn = SqNorm(row)
		}
		out[v] = ScoreOne(d, q, row, qn, cn)
	}
	return out
}

// RefScore is the naive reference scorer: it evaluates the decoder's
// textbook definition with scalar loops, no folded query and no fused
// kernel, yet lands on bit-identical float32 results (the fused path
// performs the same multiplies and adds in the same order). Conformance
// tests pin the fused implementations against it.
func RefScore(kind string, src, rel, dst []float32) float32 {
	switch kind {
	case KindDistMult:
		var s float32
		for j := range src {
			s += src[j] * rel[j] * dst[j]
		}
		return s
	case KindComplEx:
		h := len(src) / 2
		var s float32
		for k := 0; k < h; k++ {
			s += (src[k]*rel[k] - src[h+k]*rel[h+k]) * dst[k]
		}
		for k := 0; k < h; k++ {
			s += (src[k]*rel[h+k] + src[h+k]*rel[k]) * dst[h+k]
		}
		return s
	case KindTransE:
		q := make([]float32, len(src))
		for j := range src {
			q[j] = src[j] + rel[j]
		}
		var dot float32
		for j := range q {
			dot += q[j] * dst[j]
		}
		return 2*dot - SqNorm(q) - SqNorm(dst)
	default:
		panic(fmt.Sprintf("decoder: unknown kind %q", kind))
	}
}

// BatchMRR computes the mean reciprocal rank of each positive score
// against its row of negative scores (optimistic-minus-ties ranking: rank
// = 1 + count of strictly greater negatives + half of ties).
func BatchMRR(pos, neg *tensor.Tensor) float64 {
	if pos.Rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < pos.Rows; i++ {
		p := pos.At(i, 0)
		rank := 1.0
		for _, s := range neg.Row(i) {
			if s > p {
				rank++
			} else if s == p {
				rank += 0.5
			}
		}
		sum += 1 / rank
	}
	return sum / float64(pos.Rows)
}

// HitsAtK computes the fraction of positives ranked within the top k.
func HitsAtK(pos, neg *tensor.Tensor, k int) float64 {
	if pos.Rows == 0 {
		return 0
	}
	hits := 0
	for i := 0; i < pos.Rows; i++ {
		p := pos.At(i, 0)
		rank := 1
		for _, s := range neg.Row(i) {
			if s > p {
				rank++
			}
		}
		if rank <= k {
			hits++
		}
	}
	return float64(hits) / float64(pos.Rows)
}

// FullRank returns the rank of target among scores (1-based, average-tie).
func FullRank(scores []float32, target int32) float64 {
	p := scores[target]
	rank, ties := 1, 0
	for i, s := range scores {
		if int32(i) == target {
			continue
		}
		if s > p {
			rank++
		} else if s == p {
			ties++
		}
	}
	return float64(rank) + float64(ties)/2
}

// TopK returns the indices of the k highest scores, ordered by score
// descending with ties broken by ascending index — the same deterministic
// tie rule the ranking evaluator uses, so served top-k lists are stable.
func TopK(scores []float32, k int) []int32 {
	return TopKSkip(scores, k, nil)
}

// TopKSkip is TopK over the candidates for which skip returns false
// (skip == nil keeps everything). Serving uses it for filtered top-k:
// known positives are skipped before ranking.
func TopKSkip(scores []float32, k int, skip func(int32) bool) []int32 {
	// top holds the best candidates seen so far, best first, never more
	// than k of them; candidates arrive by ascending index, so one enters
	// ahead of a kept index only with a strictly higher score.
	k = min(k, len(scores))
	top := make([]int32, 0, k)
	if k == 0 {
		return top
	}
	for i, s := range scores {
		if len(top) == k && !(s > scores[top[k-1]]) {
			continue
		}
		if skip != nil && skip(int32(i)) {
			continue
		}
		p := sort.Search(len(top), func(j int) bool { return scores[top[j]] < s })
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[p+1:], top[p:])
		top[p] = int32(i)
	}
	return top
}
