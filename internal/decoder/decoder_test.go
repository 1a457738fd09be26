package decoder

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestDistMultScoreMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := nn.NewParamSet()
	d := NewDistMult(ps, 3, 4, rng)

	// Seven encoded rows: 2 sources, 2 destinations, 3 shared negatives.
	enc := tensor.New(7, 4)
	enc.RandNormal(rng, 1)
	src := tensor.FromSlice(2, 4, enc.Data[0:8])
	dst := tensor.FromSlice(2, 4, enc.Data[8:16])
	neg := tensor.FromSlice(3, 4, enc.Data[16:28])
	srcIdx, dstIdx, negIdx := []int32{0, 1}, []int32{2, 3}, []int32{4, 5, 6}
	rels := []int32{0, 2}

	tp := tensor.NewTape()
	params := ps.Bind(tp)
	pos, negD, negS := d.scores(tp, params, tp.Constant(enc), srcIdx, dstIdx, negIdx, rels)

	relT := d.Rel.Value
	for i := 0; i < 2; i++ {
		var want float64
		for j := 0; j < 4; j++ {
			want += float64(src.At(i, j)) * float64(relT.At(int(rels[i]), j)) * float64(dst.At(i, j))
		}
		if math.Abs(float64(pos.Value.At(i, 0))-want) > 1e-4 {
			t.Fatalf("pos score %d: got %v want %v", i, pos.Value.At(i, 0), want)
		}
		for n := 0; n < 3; n++ {
			var wd, ws float64
			for j := 0; j < 4; j++ {
				wd += float64(src.At(i, j)) * float64(relT.At(int(rels[i]), j)) * float64(neg.At(n, j))
				ws += float64(dst.At(i, j)) * float64(relT.At(int(rels[i]), j)) * float64(neg.At(n, j))
			}
			if math.Abs(float64(negD.Value.At(i, n))-wd) > 1e-4 {
				t.Fatalf("negDst score (%d,%d) wrong", i, n)
			}
			if math.Abs(float64(negS.Value.At(i, n))-ws) > 1e-4 {
				t.Fatalf("negSrc score (%d,%d) wrong", i, n)
			}
		}
	}
}

func TestDistMultLossGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := nn.NewParamSet()
	d := NewDistMult(ps, 2, 3, rng)
	// 13 encoded rows: 4 sources, 4 destinations, 5 negatives.
	enc := tensor.New(13, 3)
	enc.RandNormal(rng, 1)

	tp := tensor.NewTape()
	params := ps.Bind(tp)
	encN := tp.Leaf(enc, true)
	loss, _, _, _ := d.Loss(tp, params, encN,
		[]int32{0, 1, 2, 3}, []int32{4, 5, 6, 7}, []int32{8, 9, 10, 11, 12}, []int32{0, 1, 0, 1})
	tp.Backward(loss)
	if encN.Grad() == nil {
		t.Fatal("no gradient to encoded embeddings")
	}
	if params[d.Rel.Name].Grad() == nil {
		t.Fatal("no gradient to relation embeddings")
	}
}

// batchMRR is the reference the fused loss's batch MRR
// (tensor.Tape.PosNegCE) is held to: the mean reciprocal rank of each
// positive score against its row of negative scores with the realistic
// rank, 1 + count of strictly greater negatives + half of ties.
func batchMRR(pos, neg *tensor.Tensor) float64 {
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

func TestBatchMRR(t *testing.T) {
	pos := tensor.FromSlice(3, 1, []float32{5, 1, 2})
	neg := tensor.FromSlice(3, 3, []float32{
		1, 2, 3, // rank 1 -> RR 1
		2, 3, 4, // rank 4 -> RR 0.25
		2, 1, 0, // one tie (2) and one below -> rank 1 + 0.5 = 1.5
	})
	want := (1.0 + 0.25 + 1/1.5) / 3
	if got := batchMRR(pos, neg); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MRR = %v, want %v", got, want)
	}
}

func TestScoreAll(t *testing.T) {
	emb := tensor.FromSlice(4, 2, []float32{
		1, 0,
		0, 1,
		1, 1,
		-1, 0,
	})
	src := []float32{1, 0}
	rel := []float32{1, 1}
	scores := ScoreAll(&DistMult{dim: 2}, src, rel, emb)
	// scores = src*rel . emb = [1,0] . rows -> [1, 0, 1, -1]
	wantScores := []float32{1, 0, 1, -1}
	for i := range wantScores {
		if scores[i] != wantScores[i] {
			t.Fatalf("score %d = %v", i, scores[i])
		}
	}
	top := TopK(scores, 2)
	if len(top) != 2 || scores[top[0]] < scores[top[1]] {
		t.Fatalf("TopK broken: %v", top)
	}
}

// TestDistMultStepHeapDoesNotGrowWithBatch extends the arena's allocation
// contract to a real loss step: DistMult.Loss + Backward on an arena-backed
// tape, as the LP trainer runs it. Every tensor comes from the arena, so
// what the heap still sees is the tape's closures, a fixed number of small
// objects per step; nothing sized by the batch (ceLoss's label slice was
// the last such allocation).
func TestDistMultStepHeapDoesNotGrowWithBatch(t *testing.T) {
	const dim, negs = 16, 50
	rng := rand.New(rand.NewSource(7))
	ps := nn.NewParamSet()
	d := NewDistMult(ps, 5, dim, rng)
	arena := tensor.NewArena()
	tp := tensor.NewTapeWith(tensor.NewCompute(1, arena))
	var binds map[string]*tensor.Node

	heapPerStep := func(batch int) (allocs float64, bytes uint64) {
		enc := tensor.New(2*batch+negs, dim)
		enc.RandNormal(rng, 1)
		srcIdx, dstIdx, rels := make([]int32, batch), make([]int32, batch), make([]int32, batch)
		for i := range srcIdx {
			srcIdx[i], dstIdx[i], rels[i] = int32(i), int32(batch+i), int32(i%5)
		}
		negIdx := make([]int32, negs)
		for i := range negIdx {
			negIdx[i] = int32(2*batch + i)
		}
		step := func() {
			tp.Reset()
			arena.Reset()
			binds = ps.BindInto(tp, binds)
			loss, _, _, _ := d.Loss(tp, binds, tp.Leaf(enc, true), srcIdx, dstIdx, negIdx, rels)
			tp.Backward(loss)
		}
		step() // warm the arena's slabs and the tape's node pool
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, smallBytes := heapPerStep(32)
	bigAllocs, bigBytes := heapPerStep(2048)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+256 {
		t.Fatalf("a step at batch 2048 allocates %v objects, %d bytes; at batch 32, %v objects, %d bytes: something on the heap is sized by the batch",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
	t.Logf("heap per step: %v objects, %d bytes at either batch size", bigAllocs, bigBytes)
}
