package train

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decoder"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/policy"
)

// prepareLP relabels g for link-prediction training, nodes assigned to
// p contiguous partitions uniformly at random (paper §3), as marius does.
func prepareLP(g *graph.Graph, p int, seed int64) partition.Partitioning {
	partition.Apply(g, partition.RandomOrder(g.NumNodes, seed))
	return partition.New(g.NumNodes, p)
}

// prepareNC relabels g for node classification, training nodes first so
// they occupy the leading partitions (paper §5.2), as marius does. It
// returns the partitioning and the number of partitions holding training
// nodes.
func prepareNC(g *graph.Graph, p int, seed int64) (partition.Partitioning, int) {
	partition.Apply(g, partition.TrainFirstOrder(g.NumNodes, g.TrainNodes, seed))
	pt := partition.New(g.NumNodes, p)
	return pt, max((len(g.TrainNodes)+pt.PartSize-1)/pt.PartSize, 1)
}

// ncFixture builds a small SBM graph plus an in-memory NC trainer.
func ncFixture(t *testing.T, seed int64) (*Trainer, *graph.Graph) {
	t.Helper()
	cfg := gen.SBMConfig{
		NumNodes: 1500, NumClasses: 5, AvgDegree: 12, FeatureDim: 16,
		Homophily: 0.85, FeatNoise: 2.0, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1,
		Seed: seed,
	}
	g := gen.SBM(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	pt, _ := prepareNC(g, 4, seed)
	src := NewMemorySource(g, pt, g.Features)

	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	enc := gnn.BuildSage(ps, []int{16, 32, g.NumClasses}, gnn.Mean, rng)
	ncfg := NCConfig{
		Encoder: enc, Params: ps,
		Fanouts: []int{10, 10}, Dirs: graph.Both,
		BatchSize: 256, Opt: nn.NewAdam(0.01), ClipNorm: 5,
		Workers: 2, Seed: seed,
	}
	return NewNC(ncfg, src, policy.InMemory{P: 4}, g.Labels, g.TrainNodes), g
}

func TestNCInMemoryLearns(t *testing.T) {
	tr, g := ncFixture(t, 1)
	var last EpochStats
	for e := 0; e < 4; e++ {
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.Metric < 0.6 {
		t.Fatalf("train accuracy %.3f after 4 epochs; SBM with 5 classes should exceed 0.6", last.Metric)
	}
	adj := graph.BuildAdjacency(g.NumNodes, g.Edges)
	acc, err := EvaluateNC(&tr.task.(*ncTask).cfg, tr.Src, adj, g.Labels, g.ValidNodes, 99)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Fatalf("valid accuracy %.3f; want > 0.5 (chance is 0.2)", acc)
	}
}

func TestNCDiskMatchesMemoryQuality(t *testing.T) {
	seed := int64(3)
	cfg := gen.SBMConfig{
		NumNodes: 1200, NumClasses: 4, AvgDegree: 10, FeatureDim: 12,
		Homophily: 0.85, FeatNoise: 2.0, TrainFrac: 0.25, ValidFrac: 0.1, TestFrac: 0.1,
		Seed: seed,
	}
	g := gen.SBM(cfg)
	pt, trainParts := prepareNC(g, 8, seed)
	src, err := NewDiskSource(g, pt, g.Features.Cols, DiskSourceConfig{
		Dir: t.TempDir(), Capacity: 4, InitTable: g.Features,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	enc := gnn.BuildSage(ps, []int{12, 24, g.NumClasses}, gnn.Mean, rng)
	ncfg := NCConfig{
		Encoder: enc, Params: ps,
		Fanouts: []int{8, 8}, Dirs: graph.Both,
		BatchSize: 256, Opt: nn.NewAdam(0.01), ClipNorm: 5,
		Workers: 2, Seed: seed,
	}
	pol := policy.NodeCache{P: 8, C: 4, TrainParts: trainParts}
	tr := NewNC(ncfg, src, pol, g.Labels, g.TrainNodes)
	var last EpochStats
	for e := 0; e < 8; e++ {
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.Metric < 0.5 {
		t.Fatalf("disk-based NC train accuracy %.3f", last.Metric)
	}
	if last.Examples != len(g.TrainNodes) {
		t.Fatalf("epoch consumed %d examples, want %d (all training nodes)", last.Examples, len(g.TrainNodes))
	}
}

// lpFixture builds a small KG and an LP trainer over the given source mode.
func lpFixture(t *testing.T, pol policy.Policy, disk bool, p, c int, seed int64) (*Trainer, *graph.Graph, func()) {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 800, NumRelations: 12, NumEdges: 12000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: seed,
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const dim = 16
	pt := prepareLP(g, p, seed)
	emb := RandomEmbeddings(g.NumNodes, dim, seed)

	var src *Source
	cleanup := func() {}
	if disk {
		var err error
		dir := t.TempDir()
		src, err = NewDiskSource(g, pt, dim, DiskSourceConfig{
			Dir: dir, Capacity: c, Learnable: true, InitTable: emb,
		})
		if err != nil {
			t.Fatal(err)
		}
		cleanup = func() { src.Close() }
	} else {
		src = NewMemorySource(g, pt, emb)
	}

	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	enc := gnn.BuildSage(ps, []int{dim, dim}, gnn.Mean, rng)
	dec := decoder.NewDistMult(ps, g.NumRels, dim, rng)
	cfg := LPConfig{
		Encoder: enc, Params: ps, Decoder: dec,
		Fanouts: []int{10}, Dirs: graph.Both,
		BatchSize: 512, Negatives: 128,
		DenseOpt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1), ClipNorm: 5,
		Workers: 2, Seed: seed,
	}
	return NewLP(cfg, src, pol), g, cleanup
}

func TestLPInMemoryLearns(t *testing.T) {
	tr, _, done := lpFixture(t, policy.InMemory{P: 4}, false, 4, 4, 11)
	defer done()
	first, err := tr.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var last EpochStats
	for e := 0; e < 4; e++ {
		last, err = tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Metric <= first.Metric {
		t.Fatalf("train MRR did not improve: %.4f -> %.4f", first.Metric, last.Metric)
	}
	if last.Metric < 0.15 {
		t.Fatalf("train MRR %.4f too low after 5 epochs (random ≈ 0.04)", last.Metric)
	}
}

func TestLPDiskCometRunsAndLearns(t *testing.T) {
	pol := policy.Comet{P: 8, L: 4, C: 4}
	tr, g, done := lpFixture(t, pol, true, 8, 4, 13)
	defer done()
	var last EpochStats
	for e := 0; e < 4; e++ {
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.Metric < 0.12 {
		t.Fatalf("disk COMET train MRR %.4f (random ≈ 0.04)", last.Metric)
	}
	if last.Examples != len(g.Edges) {
		t.Fatalf("epoch consumed %d examples, want %d (every training edge exactly once)", last.Examples, len(g.Edges))
	}
	if last.IO.BytesRead == 0 {
		t.Fatal("disk training reported no IO")
	}
	if last.Visits < 2 {
		t.Fatal("COMET should need multiple partition sets")
	}
}

func TestLPDiskBetaRuns(t *testing.T) {
	pol := policy.Beta{P: 8, C: 4}
	tr, g, done := lpFixture(t, pol, true, 8, 4, 17)
	defer done()
	st, err := tr.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != len(g.Edges) {
		t.Fatalf("BETA epoch consumed %d/%d examples", st.Examples, len(g.Edges))
	}
}

func TestLPDecoderOnlyDistMult(t *testing.T) {
	g := gen.KG(gen.KGConfig{
		NumEntities: 500, NumRelations: 8, NumEdges: 6000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 23,
	})
	const dim = 16
	pt := prepareLP(g, 4, 23)
	emb := RandomEmbeddings(g.NumNodes, dim, 23)
	src := NewMemorySource(g, pt, emb)

	rng := rand.New(rand.NewSource(23))
	ps := nn.NewParamSet()
	dec := decoder.NewDistMult(ps, g.NumRels, dim, rng)
	cfg := LPConfig{
		Params: ps, Decoder: dec, // Encoder nil: knowledge-graph embeddings only
		BatchSize: 512, Negatives: 128,
		DenseOpt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1),
		Workers: 2, Seed: 23,
	}
	tr := NewLP(cfg, src, policy.InMemory{P: 4})
	var last EpochStats
	for e := 0; e < 5; e++ {
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.Metric < 0.15 {
		t.Fatalf("decoder-only train MRR %.4f (random ≈ 0.04)", last.Metric)
	}

	// Full-ranking evaluation must run and beat random (1/|V| ≈ 0.002).
	adj := graph.BuildAdjacency(g.NumNodes, g.Edges)
	stats, err := EvaluateLP(LPEvalConfig{
		Params: ps, Decoder: dec, Negatives: 0, Seed: 1,
	}, emb, adj, g.ValidEdges)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MRR < 0.02 {
		t.Fatalf("full-ranking valid MRR %.4f too low (random ≈ 0.002)", stats.MRR)
	}
	if stats.Hits[10] < stats.Hits[1] || stats.Hits[10] < stats.MRR/2 {
		t.Fatalf("implausible hits: hits@1 %.4f hits@10 %.4f mrr %.4f", stats.Hits[1], stats.Hits[10], stats.MRR)
	}
}

// uniqueIndex deduplicates ids preserving first-occurrence order and
// returns the unique list plus the index of each input in it: the
// map-based reference the deduper is held to.
func uniqueIndex(ids ...[]int32) (unique []int32, idx [][]int32) {
	seen := make(map[int32]int32, 64)
	idx = make([][]int32, len(ids))
	for g, group := range ids {
		idx[g] = make([]int32, len(group))
		for i, id := range group {
			u, ok := seen[id]
			if !ok {
				u = int32(len(unique))
				seen[id] = u
				unique = append(unique, id)
			}
			idx[g][i] = u
		}
	}
	return unique, idx
}

func TestUniqueIndex(t *testing.T) {
	u, idx := uniqueIndex([]int32{5, 3, 5}, []int32{3, 9})
	if len(u) != 3 || u[0] != 5 || u[1] != 3 || u[2] != 9 {
		t.Fatalf("unique = %v", u)
	}
	if idx[0][0] != 0 || idx[0][1] != 1 || idx[0][2] != 0 || idx[1][0] != 1 || idx[1][1] != 2 {
		t.Fatalf("idx = %v", idx)
	}
	for _, g := range idx {
		for i, ui := range g {
			_ = i
			if int(ui) >= len(u) {
				t.Fatal("index out of range")
			}
		}
	}
}
