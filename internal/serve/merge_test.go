package serve

import (
	"math/rand"
	"testing"

	"repro/internal/encode"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestMergeDenseMatchesPerBlockForward is the micro-batching keystone:
// encoding a merged multi-request DENSE must reproduce each request's
// individual forward bitwise, with output rows contiguous per block in
// block order — including when requests' neighborhoods overlap (the
// merged structure carries duplicate node IDs by design).
func TestMergeDenseMatchesPerBlockForward(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(7))
	var edges []graph.Edge
	for i := 0; i < 160; i++ {
		edges = append(edges, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))})
	}
	adj := graph.BuildAdjacency(n, edges)

	feat := tensor.New(n, 5)
	for i := range feat.Data {
		feat.Data[i] = rng.Float32()
	}
	store := storage.NewMemoryNodeStore(feat, false)

	for _, fanouts := range [][]int{{3}, {3, 2}} {
		ps := nn.NewParamSet()
		enc := gnn.BuildSage(ps, append([]int{5, 8, 6}[:len(fanouts)], 4), gnn.Mean, rng)
		fwd := encode.New(encode.Config{
			Encoder: enc, Params: ps, Fanouts: fanouts, Dirs: graph.Both, Workers: 1,
		}, adj, 1)

		targets := [][]int32{{1, 2, 3}, {4, 5}, {2, 7, 9, 1}} // overlaps blocks 0 and 2
		seeds := []int64{101, 202, 303}

		// Individual forwards first: one sample+encode per block.
		want := make([][]float32, len(targets))
		for i := range targets {
			d := fwd.SampleSeeded(seeds[i], targets[i])
			out, err := fwd.EncodeDense(store, d)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append([]float32(nil), out.Value.Data[:len(targets[i])*out.Value.Cols]...)
			fwd.Recycle(d)
		}

		// Same samples again, merged into one structure, one forward.
		blocks := make([]*sampler.DENSE, len(targets))
		for i := range targets {
			blocks[i] = fwd.SampleSeeded(seeds[i], targets[i])
		}
		out, err := fwd.EncodeDense(store, mergeDense(blocks))
		if err != nil {
			t.Fatal(err)
		}
		cols := out.Value.Cols
		base := 0
		for i := range targets {
			got := out.Value.Data[base*cols : (base+len(targets[i]))*cols]
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("fanouts %v: block %d differs at flat index %d: merged %v, individual %v",
						fanouts, i, j, got[j], want[i][j])
				}
			}
			base += len(targets[i])
		}
	}
}
