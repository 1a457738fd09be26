package decoder

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DistMult scores an edge (s, r, d) as ⟨e_s, w_r, e_d⟩ = Σ_j e_s[j]·w_r[j]·e_d[j].
type DistMult struct {
	Rel *nn.Param // [numRels x dim] learned relation embeddings
	dim int
}

// NewDistMult registers relation embeddings in ps.
func NewDistMult(ps *nn.ParamSet, numRels, dim int, rng *rand.Rand) *DistMult {
	p := ps.New("distmult.rel", numRels, dim)
	p.Value.RandUniform(rng, 0.1)
	return &DistMult{Rel: p, dim: dim}
}

// Kind returns "distmult".
func (d *DistMult) Kind() string { return KindDistMult }

// Dim returns the embedding dimensionality.
func (d *DistMult) Dim() int { return d.dim }

// RelParam returns the learned relation table.
func (d *DistMult) RelParam() *nn.Param { return d.Rel }

// Norms reports false: DistMult scores are plain dot products.
func (d *DistMult) Norms() bool { return false }

// TailQueryInto folds (src, rel) into q = src ∘ rel: candidate tails then
// score as ⟨q, e_t⟩.
func (d *DistMult) TailQueryInto(q, src, rel []float32) {
	for j := range q {
		q[j] = src[j] * rel[j]
	}
}

// HeadQueryInto folds (rel, dst) into q = dst ∘ rel (DistMult is
// symmetric in its endpoints).
func (d *DistMult) HeadQueryInto(q, dst, rel []float32) {
	for j := range q {
		q[j] = dst[j] * rel[j]
	}
}

// Loss implements Decoder. Negative scoring uses the fused gather+matmul
// kernel: the looked-up negative embeddings are streamed straight out of
// enc, never materialized as a [N x dim] matrix.
func (d *DistMult) Loss(tp *tensor.Tape, params map[string]*tensor.Node, enc *tensor.Node, srcIdx, dstIdx, negIdx, rels []int32) (loss, posScores, negDst, negSrc *tensor.Node) {
	relRows := tp.Gather(params[d.Rel.Name], rels) // [B x dim]

	srcEnc := tp.Gather(enc, srcIdx)
	dstEnc := tp.Gather(enc, dstIdx)
	srcRel := tp.Mul(srcEnc, relRows) // [B x dim]
	dstRel := tp.Mul(dstEnc, relRows)

	posScores = tp.RowSum(tp.Mul(srcRel, dstEnc))   // [B x 1]
	negDst = tp.GatherMatMulTB(srcRel, enc, negIdx) // [B x N] corrupt destination
	negSrc = tp.GatherMatMulTB(dstRel, enc, negIdx) // [B x N] corrupt source

	loss = ceLoss(tp, posScores, negDst, negSrc)
	return loss, posScores, negDst, negSrc
}
