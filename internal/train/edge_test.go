package train

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/decoder"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/storage"
)

func TestLPGATTrainsEndToEnd(t *testing.T) {
	g := gen.KG(gen.KGConfig{
		NumEntities: 500, NumRelations: 6, NumEdges: 5000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 31,
	})
	const dim = 12
	pt := prepareLP(g, 4, 31)
	emb := RandomEmbeddings(g.NumNodes, dim, 31)
	src := NewMemorySource(g, pt, emb)

	rng := rand.New(rand.NewSource(31))
	ps := nn.NewParamSet()
	enc := gnn.BuildGAT(ps, []int{dim, dim}, rng)
	dec := decoder.NewDistMult(ps, g.NumRels, dim, rng)
	tr := NewLP(LPConfig{
		Encoder: enc, Params: ps, Decoder: dec,
		Fanouts: []int{6}, Dirs: graph.Both,
		BatchSize: 256, Negatives: 64,
		DenseOpt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1), ClipNorm: 5,
		Workers: 2, Seed: 31,
	}, src, policy.InMemory{P: 4})

	first, err := tr.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var last EpochStats
	for e := 0; e < 3; e++ {
		last, err = tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Metric <= first.Metric {
		t.Fatalf("GAT LP did not improve: %.4f -> %.4f", first.Metric, last.Metric)
	}
}

// Throttling only delays IO: a throttled disk epoch consumes every edge
// and computes the unthrottled epoch's loss bit for bit.
func TestThrottledDiskTrainingStillCorrect(t *testing.T) {
	g := gen.KG(gen.KGConfig{
		NumEntities: 300, NumRelations: 4, NumEdges: 2500,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 37,
	})
	const dim = 8
	pt := prepareLP(g, 4, 37)
	epoch := func(th *storage.Throttle) EpochStats {
		src, err := NewDiskSource(g, pt, dim, DiskSourceConfig{
			Dir: t.TempDir(), Capacity: 2, Learnable: true,
			InitTable: RandomEmbeddings(g.NumNodes, dim, 37), Throttle: th,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()

		rng := rand.New(rand.NewSource(37))
		ps := nn.NewParamSet()
		dec := decoder.NewDistMult(ps, g.NumRels, dim, rng)
		tr := NewLP(LPConfig{
			Params: ps, Decoder: dec,
			BatchSize: 256, Negatives: 32,
			DenseOpt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1),
			Workers: 2, Seed: 37,
		}, src, policy.Comet{P: 4, L: 4, C: 2})
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain := epoch(nil)
	st := epoch(storage.NewThrottle(64 << 20)) // 64 MiB/s simulated disk
	if st.Examples != len(g.Edges) {
		t.Fatalf("consumed %d/%d edges under throttling", st.Examples, len(g.Edges))
	}
	if math.Float64bits(st.Loss) != math.Float64bits(plain.Loss) {
		t.Fatalf("throttled loss %v, unthrottled %v", st.Loss, plain.Loss)
	}
}

func TestNCEmptyVisitTargets(t *testing.T) {
	// A visit whose partitions contain no untrained training nodes must be
	// skipped cleanly (zero batches, no deadlock in the pipeline).
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 400, NumClasses: 3, AvgDegree: 6, FeatureDim: 6,
		Homophily: 0.8, FeatNoise: 1.5, TrainFrac: 0.02, ValidFrac: 0.02, TestFrac: 0.02,
		Seed: 41,
	})
	pt, trainParts := prepareNC(g, 8, 41)
	src, err := NewDiskSource(g, pt, g.Features.Cols, DiskSourceConfig{
		Dir: t.TempDir(), Capacity: 3, InitTable: g.Features,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	rng := rand.New(rand.NewSource(41))
	ps := nn.NewParamSet()
	enc := gnn.BuildSage(ps, []int{6, 8, g.NumClasses}, gnn.Mean, rng)
	tr := NewNC(NCConfig{
		Encoder: enc, Params: ps,
		Fanouts: []int{4, 4}, Dirs: graph.Both,
		BatchSize: 64, Opt: nn.NewAdam(0.01),
		Workers: 2, Seed: 41,
	}, src, policy.NodeCache{P: 8, C: 3, TrainParts: trainParts}, g.Labels, g.TrainNodes)

	st, err := tr.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != len(g.TrainNodes) {
		t.Fatalf("consumed %d/%d training nodes", st.Examples, len(g.TrainNodes))
	}
}

func TestLPStatsAccounting(t *testing.T) {
	tr, g, done := lpFixture(t, policy.InMemory{P: 4}, false, 4, 4, 43)
	defer done()
	st, err := tr.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != (len(g.Edges)+511)/512 {
		t.Fatalf("batches = %d", st.Batches)
	}
	if st.Sample <= 0 || st.Compute <= 0 {
		t.Fatal("stage timings missing")
	}
	if st.Visits != 1 {
		t.Fatalf("in-memory training should have one visit, got %d", st.Visits)
	}
}
