package decoder

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ComplEx scores an edge (s, r, d) as Re(⟨e_s, w_r, conj(e_d)⟩) over
// complex-valued embeddings (Trouillon et al.). Embeddings use the
// split-half layout: the first dim/2 components are the real parts, the
// last dim/2 the imaginary parts, so every entity row stays a plain
// float32 vector and the fused dot-product kernel applies unchanged once
// the (src, rel) pair is folded into a query:
//
//	q_re = a∘c − b∘d,  q_im = a∘d + b∘c   (s = a+bi, r = c+di)
//	score(t = e+fi) = ⟨q_re, e⟩ + ⟨q_im, f⟩ = ⟨q, e_t⟩
//
// Ranking heads of (r, t) folds the other side: q'_re = c∘e + d∘f,
// q'_im = c∘f − d∘e.
type ComplEx struct {
	Rel *nn.Param // [numRels x dim] relation embeddings, split-half complex
	dim int
}

// NewComplEx registers relation embeddings in ps. dim must be even (the
// embedding splits into real and imaginary halves).
func NewComplEx(ps *nn.ParamSet, numRels, dim int, rng *rand.Rand) (*ComplEx, error) {
	if dim%2 != 0 {
		return nil, fmt.Errorf("decoder: complex requires an even dim, got %d", dim)
	}
	p := ps.New("complex.rel", numRels, dim)
	p.Value.RandUniform(rng, 0.1)
	return &ComplEx{Rel: p, dim: dim}, nil
}

// Kind returns "complex".
func (d *ComplEx) Kind() string { return KindComplEx }

// Dim returns the embedding dimensionality (real + imaginary halves).
func (d *ComplEx) Dim() int { return d.dim }

// RelParam returns the learned relation table.
func (d *ComplEx) RelParam() *nn.Param { return d.Rel }

// Norms reports false: folded ComplEx scores are plain dot products.
func (d *ComplEx) Norms() bool { return false }

// TailQueryInto folds (src, rel) into the tail query.
func (d *ComplEx) TailQueryInto(q, src, rel []float32) {
	h := d.dim / 2
	for k := 0; k < h; k++ {
		q[k] = src[k]*rel[k] - src[h+k]*rel[h+k]
		q[h+k] = src[k]*rel[h+k] + src[h+k]*rel[k]
	}
}

// HeadQueryInto folds (rel, dst) into the head query.
func (d *ComplEx) HeadQueryInto(q, dst, rel []float32) {
	h := d.dim / 2
	for k := 0; k < h; k++ {
		q[k] = rel[k]*dst[k] + rel[h+k]*dst[h+k]
		q[h+k] = rel[k]*dst[h+k] - rel[h+k]*dst[k]
	}
}

// Loss implements Decoder.
func (d *ComplEx) Loss(tp *tensor.Tape, params map[string]*tensor.Node, enc *tensor.Node, srcIdx, dstIdx, negIdx, rels []int32) (loss, pos, negDst *tensor.Node, mrr float64) {
	pos, negDst, negSrc := d.scores(tp, params, enc, srcIdx, dstIdx, negIdx, rels)
	return ceLoss(tp, pos, negDst, negSrc)
}

// scores implements Decoder. The tape mirrors the folded-query scoring:
// SliceCols splits the gathered embeddings into halves, the elementwise
// complex product builds the tail and head queries, and the fused
// gather+matmul streams both negative sets out of enc.
func (d *ComplEx) scores(tp *tensor.Tape, params map[string]*tensor.Node, enc *tensor.Node, srcIdx, dstIdx, negIdx, rels []int32) (posScores, negDst, negSrc *tensor.Node) {
	relRows := tp.Gather(params[d.Rel.Name], rels) // [B x dim]
	srcEnc := tp.Gather(enc, srcIdx)
	dstEnc := tp.Gather(enc, dstIdx)

	h := d.dim / 2
	a, b := tp.SliceCols(srcEnc, 0, h), tp.SliceCols(srcEnc, h, d.dim)
	c, dd := tp.SliceCols(relRows, 0, h), tp.SliceCols(relRows, h, d.dim)
	e, f := tp.SliceCols(dstEnc, 0, h), tp.SliceCols(dstEnc, h, d.dim)

	// Tail query: s·r folded so tails score as a dot product.
	tailQ := tp.ConcatCols(
		tp.Sub(tp.Mul(a, c), tp.Mul(b, dd)),
		tp.Add(tp.Mul(a, dd), tp.Mul(b, c)),
	) // [B x dim]
	// Head query: r·conj(t) folded so heads score as a dot product.
	headQ := tp.ConcatCols(
		tp.Add(tp.Mul(c, e), tp.Mul(dd, f)),
		tp.Sub(tp.Mul(c, f), tp.Mul(dd, e)),
	) // [B x dim]

	posScores = tp.RowSum(tp.Mul(tailQ, dstEnc))   // [B x 1]
	negDst = tp.GatherMatMulTB(tailQ, enc, negIdx) // [B x N] corrupt destination
	negSrc = tp.GatherMatMulTB(headQ, enc, negIdx) // [B x N] corrupt source

	return posScores, negDst, negSrc
}
