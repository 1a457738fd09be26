package decoder

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// allKinds lists every decoder kind; conformance tests sweep them all.
var allKinds = []string{KindDistMult, KindComplEx, KindTransE}

func newDecoder(t *testing.T, kind string, numRels, dim int, seed int64) (Decoder, *nn.ParamSet) {
	t.Helper()
	ps := nn.NewParamSet()
	d, err := New(kind, ps, numRels, dim, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New(%s): %v", kind, err)
	}
	return d, ps
}

// TestNewDecoderErrors pins the constructor's typed failures.
func TestNewDecoderErrors(t *testing.T) {
	ps := nn.NewParamSet()
	rng := rand.New(rand.NewSource(1))
	if _, err := New("rotatE", ps, 2, 8, rng); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(KindComplEx, ps, 2, 7, rng); err == nil {
		t.Fatal("odd-dim ComplEx accepted")
	}
	for _, kind := range allKinds {
		if _, err := New(kind, nn.NewParamSet(), 3, 8, rng); err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
	}
}

// TestFusedScoringMatchesRefExactly is the kernel conformance contract:
// folded queries scored through the fused GatherMatMulTB chunk (plus the
// norm completion) must equal the naive definitional RefScore scorer bit
// for bit, at every worker count.
func TestFusedScoringMatchesRefExactly(t *testing.T) {
	const (
		numRels = 5
		dim     = 16
		ents    = 64
		batch   = 9
	)
	rng := rand.New(rand.NewSource(7))
	emb := tensor.New(ents, dim)
	emb.RandNormal(rng, 1)

	for _, kind := range allKinds {
		d, _ := newDecoder(t, kind, numRels, dim, 11)
		rel := d.RelParam().Value

		// Batch of (src, rel) tail queries and (dst, rel) head queries.
		queries := tensor.New(2*batch, dim)
		srcs := make([]int32, batch)
		rels := make([]int32, batch)
		for i := 0; i < batch; i++ {
			srcs[i] = int32(rng.Intn(ents))
			rels[i] = int32(rng.Intn(numRels))
			d.TailQueryInto(queries.Row(i), emb.Row(int(srcs[i])), rel.Row(int(rels[i])))
			d.HeadQueryInto(queries.Row(batch+i), emb.Row(int(srcs[i])), rel.Row(int(rels[i])))
		}
		var qn, tn []float32
		if d.Norms() {
			qn = TableNorms(queries)
			tn = TableNorms(emb)
		}

		// Candidate chunk covering every entity, scored at 1..4 workers.
		idx := make([]int32, ents)
		for i := range idx {
			idx[i] = int32(i)
		}
		for workers := 1; workers <= 4; workers++ {
			c := tensor.NewCompute(workers, nil)
			s := c.GatherMatMulTB(queries, emb, idx)
			FinishScores(d, s, qn, tn, idx)
			for i := 0; i < batch; i++ {
				for j := 0; j < ents; j++ {
					wantTail := RefScore(kind, emb.Row(int(srcs[i])), rel.Row(int(rels[i])), emb.Row(j))
					if got := s.At(i, j); got != wantTail {
						t.Fatalf("%s w=%d tail (%d,%d): fused %v != ref %v", kind, workers, i, j, got, wantTail)
					}
					// Head query folds the same triple from the other side:
					// candidate j as head of (rels[i], srcs[i]-as-dst).
					wantHead := RefScore(kind, emb.Row(j), rel.Row(int(rels[i])), emb.Row(int(srcs[i])))
					if got := s.At(batch+i, j); !closeF32(got, wantHead, 1e-4) {
						t.Fatalf("%s w=%d head (%d,%d): fused %v, ref %v", kind, workers, i, j, got, wantHead)
					}
				}
			}
			// ScoreAll (the scalar serving reference) must match the fused
			// tail row bit for bit.
			for i := 0; i < batch; i++ {
				all := ScoreAll(d, emb.Row(int(srcs[i])), rel.Row(int(rels[i])), emb)
				for j := 0; j < ents; j++ {
					if all[j] != s.At(i, j) {
						t.Fatalf("%s w=%d ScoreAll(%d,%d) %v != fused %v", kind, workers, i, j, all[j], s.At(i, j))
					}
				}
			}
		}
	}
}

func closeF32(a, b float32, tol float64) bool {
	diff := math.Abs(float64(a - b))
	scale := math.Max(1, math.Abs(float64(b)))
	return diff/scale <= tol
}

// TestComplExScoreMatchesDefinition checks the folded query against the
// textbook Re(⟨s, r, conj(t)⟩) formula.
func TestComplExScoreMatchesDefinition(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(3))
	d, _ := newDecoder(t, KindComplEx, 2, dim, 3)
	src, rel, dst := make([]float32, dim), make([]float32, dim), make([]float32, dim)
	for j := 0; j < dim; j++ {
		src[j], rel[j], dst[j] = rng.Float32(), rng.Float32(), rng.Float32()
	}
	h := dim / 2
	var want float64
	for k := 0; k < h; k++ {
		s := complex(float64(src[k]), float64(src[h+k]))
		r := complex(float64(rel[k]), float64(rel[h+k]))
		c := complex(float64(dst[k]), -float64(dst[h+k]))
		want += real(s * r * c)
	}
	q := make([]float32, dim)
	d.TailQueryInto(q, src, rel)
	got := float64(ScoreOne(d, q, dst, 0, 0))
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("ComplEx folded score %v, definition %v", got, want)
	}
	// Head query scores the same triple.
	d.HeadQueryInto(q, dst, rel)
	if got2 := float64(ScoreOne(d, q, src, 0, 0)); math.Abs(got2-want) > 1e-5 {
		t.Fatalf("ComplEx head-folded score %v, definition %v", got2, want)
	}
}

// TestTransEScoreMatchesDefinition checks the expanded-norm score against
// the textbook −‖s + r − t‖².
func TestTransEScoreMatchesDefinition(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(4))
	d, _ := newDecoder(t, KindTransE, 2, dim, 4)
	src, rel, dst := make([]float32, dim), make([]float32, dim), make([]float32, dim)
	for j := 0; j < dim; j++ {
		src[j], rel[j], dst[j] = rng.Float32(), rng.Float32(), rng.Float32()
	}
	var want float64
	for j := 0; j < dim; j++ {
		diff := float64(src[j]) + float64(rel[j]) - float64(dst[j])
		want -= diff * diff
	}
	q := make([]float32, dim)
	d.TailQueryInto(q, src, rel)
	got := float64(ScoreOne(d, q, dst, SqNorm(q), SqNorm(dst)))
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("TransE folded score %v, definition %v", got, want)
	}
	d.HeadQueryInto(q, dst, rel)
	if got2 := float64(ScoreOne(d, q, src, SqNorm(q), SqNorm(src))); math.Abs(got2-want) > 1e-4 {
		t.Fatalf("TransE head-folded score %v, definition %v", got2, want)
	}
}

// TestLossMatchesFoldedScores checks, for every decoder, that the
// tape-recorded Loss produces positive and negative scores equal to the
// scalar reference scorer, and that gradients flow to both the encoded
// embeddings and the relation table.
func TestLossMatchesFoldedScores(t *testing.T) {
	const (
		numRels = 3
		dim     = 8
		rows    = 12
	)
	rng := rand.New(rand.NewSource(9))
	enc := tensor.New(rows, dim)
	enc.RandNormal(rng, 1)
	srcIdx, dstIdx := []int32{0, 1, 2}, []int32{3, 4, 5}
	negIdx := []int32{6, 7, 8, 9, 10, 11}
	rels := []int32{0, 2, 1}

	for _, kind := range allKinds {
		d, ps := newDecoder(t, kind, numRels, dim, 13)
		rel := d.RelParam().Value
		tp := tensor.NewTape()
		params := ps.Bind(tp)
		encN := tp.Leaf(enc, true)
		loss, pos, negD, mrr := d.Loss(tp, params, encN, srcIdx, dstIdx, negIdx, rels)
		if want := batchMRR(pos.Value, negD.Value); mrr != want {
			t.Fatalf("%s: Loss's mrr %v, batchMRR %v", kind, mrr, want)
		}
		_, _, negS := d.scores(tp, params, encN, srcIdx, dstIdx, negIdx, rels)

		for i := range srcIdx {
			s, dsts, r := enc.Row(int(srcIdx[i])), enc.Row(int(dstIdx[i])), rel.Row(int(rels[i]))
			if want := RefScore(kind, s, r, dsts); !closeF32(pos.Value.At(i, 0), want, 1e-4) {
				t.Fatalf("%s pos[%d] = %v, ref %v", kind, i, pos.Value.At(i, 0), want)
			}
			for n, id := range negIdx {
				cand := enc.Row(int(id))
				if want := RefScore(kind, s, r, cand); !closeF32(negD.Value.At(i, n), want, 1e-4) {
					t.Fatalf("%s negDst[%d][%d] = %v, ref %v", kind, i, n, negD.Value.At(i, n), want)
				}
				if want := RefScore(kind, cand, r, dsts); !closeF32(negS.Value.At(i, n), want, 1e-4) {
					t.Fatalf("%s negSrc[%d][%d] = %v, ref %v", kind, i, n, negS.Value.At(i, n), want)
				}
			}
		}

		tp.Backward(loss)
		if encN.Grad() == nil {
			t.Fatalf("%s: no gradient to encoded embeddings", kind)
		}
		if params[d.RelParam().Name].Grad() == nil {
			t.Fatalf("%s: no gradient to relation embeddings", kind)
		}
	}
}

// TestQTableNormsMatchDequant pins the quantized-table norms to the
// dequantized rows (what the dequantizing score kernel dots against).
func TestQTableNormsMatchDequant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := tensor.New(9, 6)
	tab.RandNormal(rng, 1)
	for _, kind := range []tensor.QuantKind{tensor.QuantF16, tensor.QuantI8} {
		q := tensor.Quantize(tab, kind)
		got := QTableNorms(q)
		deq := q.Dequant()
		want := TableNorms(deq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %v row %d: %v != %v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestTopKDeterministicTies pins the tie rule: score descending, index
// ascending, and TopKSkip drops filtered candidates before ranking.
func TestTopKDeterministicTies(t *testing.T) {
	scores := []float32{2, 5, 5, 1, 5, 2}
	got := TopK(scores, 4)
	want := []int32{1, 2, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	skip := func(id int32) bool { return id == 2 || id == 0 }
	got = TopKSkip(scores, 3, skip)
	want = []int32{1, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKSkip = %v, want %v", got, want)
		}
	}
}

// TestTopKSkipEqualsFullSort holds the bounded selection to the order a
// full sort gives (score descending, index ascending) on tie-heavy random
// scores, for k from 0 to beyond the candidate count.
func TestTopKSkipEqualsFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		scores := make([]float32, rng.Intn(60))
		for i := range scores {
			scores[i] = float32(rng.Intn(8)) // few distinct values: many ties
		}
		skip := func(id int32) bool { return id%3 == int32(trial%3) }
		var all []int32
		for i := range scores {
			if !skip(int32(i)) {
				all = append(all, int32(i))
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if scores[all[a]] != scores[all[b]] {
				return scores[all[a]] > scores[all[b]]
			}
			return all[a] < all[b]
		})
		for _, k := range []int{0, 1, 3, 10, len(scores), len(scores) + 5} {
			got := TopKSkip(scores, k, skip)
			want := all[:min(k, len(all))]
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d ids, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: %v, want %v", trial, k, got, want)
				}
			}
		}
	}
}
