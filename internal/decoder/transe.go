package decoder

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TransE scores an edge (s, r, d) as the negative squared distance
// −‖e_s + w_r − e_d‖² (Bordes et al.). Expanding the square,
//
//	score = 2·⟨q, e_d⟩ − ‖q‖² − ‖e_d‖²   with q = e_s + w_r,
//
// so candidate scoring is still one fused dot product per entity plus a
// per-query bias (−‖q‖²) and a per-candidate bias (−‖e‖², precomputable
// once per entity table via TableNorms). Norms() reports true; score
// paths apply the completion through FinishScores/ScoreOne.
type TransE struct {
	Rel *nn.Param // [numRels x dim] learned relation translations
	dim int
}

// NewTransE registers relation translations in ps.
func NewTransE(ps *nn.ParamSet, numRels, dim int, rng *rand.Rand) *TransE {
	p := ps.New("transe.rel", numRels, dim)
	p.Value.RandUniform(rng, 0.1)
	return &TransE{Rel: p, dim: dim}
}

// Kind returns "transe".
func (d *TransE) Kind() string { return KindTransE }

// Dim returns the embedding dimensionality.
func (d *TransE) Dim() int { return d.dim }

// RelParam returns the learned relation table.
func (d *TransE) RelParam() *nn.Param { return d.Rel }

// Norms reports true: scores need the squared-norm completion.
func (d *TransE) Norms() bool { return true }

// TailQueryInto folds (src, rel) into q = src + rel.
func (d *TransE) TailQueryInto(q, src, rel []float32) {
	for j := range q {
		q[j] = src[j] + rel[j]
	}
}

// HeadQueryInto folds (rel, dst) into q = dst − rel: −‖s+r−d‖² =
// −‖s − (d−r)‖², so heads rank by 2·⟨d−r, e_s⟩ − ‖d−r‖² − ‖e_s‖².
func (d *TransE) HeadQueryInto(q, dst, rel []float32) {
	for j := range q {
		q[j] = dst[j] - rel[j]
	}
}

// Loss implements Decoder. The fused kernel supplies the ⟨q, e⟩ dots for
// all negatives; AddColVec/AddRowVec complete them with the per-query and
// per-candidate squared-norm biases on the tape (the only place the
// negative rows materialize is the norm computation itself).
func (d *TransE) Loss(tp *tensor.Tape, params map[string]*tensor.Node, enc *tensor.Node, srcIdx, dstIdx, negIdx, rels []int32) (loss, posScores, negDst, negSrc *tensor.Node) {
	relRows := tp.Gather(params[d.Rel.Name], rels) // [B x dim]
	srcEnc := tp.Gather(enc, srcIdx)
	dstEnc := tp.Gather(enc, dstIdx)

	q := tp.Add(srcEnc, relRows)    // [B x dim] tail query s + r
	hq := tp.Sub(dstEnc, relRows)   // [B x dim] head query d − r
	qn := tp.RowSum(tp.Mul(q, q))   // [B x 1] ‖s+r‖²
	hn := tp.RowSum(tp.Mul(hq, hq)) // [B x 1] ‖d−r‖²
	negRows := tp.Gather(enc, negIdx)
	en := tp.RowSum(tp.Mul(negRows, negRows)) // [N x 1] per-negative ‖e‖²

	dn := tp.RowSum(tp.Mul(dstEnc, dstEnc)) // [B x 1] ‖d‖²
	posScores = tp.Sub(tp.Sub(tp.Scale(tp.RowSum(tp.Mul(q, dstEnc)), 2), qn), dn)

	negDst = tp.AddRowVec(
		tp.AddColVec(tp.Scale(tp.GatherMatMulTB(q, enc, negIdx), 2), tp.Scale(qn, -1)),
		tp.Scale(en, -1),
	) // [B x N] corrupt destination
	negSrc = tp.AddRowVec(
		tp.AddColVec(tp.Scale(tp.GatherMatMulTB(hq, enc, negIdx), 2), tp.Scale(hn, -1)),
		tp.Scale(en, -1),
	) // [B x N] corrupt source

	loss = ceLoss(tp, posScores, negDst, negSrc)
	return loss, posScores, negDst, negSrc
}
