package train

import (
	"context"
	"testing"

	"repro/internal/policy"
)

// TestLPBatchConstructionZeroAlloc: after one warm epoch, the LP
// batch-construction hot path (endpoint/negative scratch, stamp-based
// dedup, DENSE sampling, pooled prepared batches) must not allocate.
func TestLPBatchConstructionZeroAlloc(t *testing.T) {
	tr, g, done := lpFixture(t, policy.InMemory{P: 4}, false, 4, 4, 51)
	defer done()
	if _, err := tr.TrainEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem := []int{0, 1, 2, 3}
	adj, err := tr.seg.refresh(tr.Src, mem)
	if err != nil {
		t.Fatal(err)
	}
	n := 2 * tr.cfg.batchSize
	v := &visit{
		adj: adj, n: n,
		pool:       tr.Src.residentNodePool(nil, mem),
		edges:      g.Edges[:n],
		batchSeeds: []int64{101, 102},
	}
	for i := 0; i < 4; i++ { // warm the batch pools for this visit shape
		tr.recycle(tr.prepare(0, v, i%2))
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.recycle(tr.prepare(0, v, 0))
	})
	if allocs != 0 {
		t.Fatalf("steady-state LP batch construction allocates %.1f/op, want 0", allocs)
	}
}

// TestNCBatchConstructionZeroAlloc: same property for the NC batcher
// (label gather + DENSE sampling over the incremental index).
func TestNCBatchConstructionZeroAlloc(t *testing.T) {
	tr, g := ncFixture(t, 52)
	if _, err := tr.TrainEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem := []int{0, 1, 2, 3}
	adj, err := tr.seg.refresh(tr.Src, mem)
	if err != nil {
		t.Fatal(err)
	}
	n := min(2*tr.cfg.batchSize, len(g.TrainNodes))
	v := &visit{
		adj: adj, n: n,
		targets:    g.TrainNodes[:n],
		batchSeeds: []int64{201, 202},
	}
	for i := 0; i < 4; i++ {
		tr.recycle(tr.prepare(0, v, i%2))
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.recycle(tr.prepare(0, v, 0))
	})
	if allocs != 0 {
		t.Fatalf("steady-state NC batch construction allocates %.1f/op, want 0", allocs)
	}
}

// TestDeduperMatchesUniqueIndex: the stamp-based deduper must assign the
// same first-occurrence indices as the map-based uniqueIndex.
func TestDeduperMatchesUniqueIndex(t *testing.T) {
	groups := [][]int32{{5, 3, 5, 9}, {3, 9, 0}, {0, 5, 7}}
	wantU, wantIdx := uniqueIndex(groups...)

	var dd deduper
	dd.reset(10)
	var uniq []int32
	for gi, group := range groups {
		for ii, id := range group {
			if got := dd.index(id, &uniq); got != wantIdx[gi][ii] {
				t.Fatalf("group %d[%d]: index %d, want %d", gi, ii, got, wantIdx[gi][ii])
			}
		}
	}
	if len(uniq) != len(wantU) {
		t.Fatalf("uniq = %v, want %v", uniq, wantU)
	}
	for i := range uniq {
		if uniq[i] != wantU[i] {
			t.Fatalf("uniq = %v, want %v", uniq, wantU)
		}
	}
}
