package train

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/decoder"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// prepareLP relabels g in place for link-prediction training, nodes
// assigned to p contiguous partitions uniformly at random (paper §3), as
// marius does.
func prepareLP(g *graph.Graph, p int, seed int64) partition.Partitioning {
	*g = *partition.Apply(g, partition.RandomOrder(g.NumNodes, seed))
	return partition.New(g.NumNodes, p)
}

// prepareNC relabels g in place for node classification, training nodes
// first so they occupy the leading partitions (paper §5.2), as marius
// does. It returns the partitioning and the number of partitions holding
// training nodes.
func prepareNC(g *graph.Graph, p int, seed int64) (partition.Partitioning, int) {
	*g = *partition.Apply(g, partition.TrainFirstOrder(g.NumNodes, g.TrainNodes, seed))
	pt := partition.New(g.NumNodes, p)
	return pt, max((len(g.TrainNodes)+pt.PartSize-1)/pt.PartSize, 1)
}

// memSource holds g's edges and table in memory, as a session over an
// in-memory graph does.
func memSource(g *graph.Graph, pt partition.Partitioning, table *tensor.Tensor, learnable bool) *Source {
	return NewSource(pt, g.NumRels, storage.NewMemoryNodeStore(table, learnable), storage.NewMemoryEdgeStore(pt, g.Edges))
}

// diskSource writes g's edges and table to files under a fresh directory,
// the table paged through a buffer of c partitions, as a disk session over
// an in-memory graph does. The test closes it.
func diskSource(t *testing.T, g *graph.Graph, pt partition.Partitioning, table *tensor.Tensor, learnable bool, c int, th *storage.Throttle) *Source {
	t.Helper()
	dir := t.TempDir()
	edges, err := storage.CreateDiskEdgeStoreFS(nil, dir, pt, g.Edges, th)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := storage.CreateDiskNodeStore(storage.DiskStoreConfig{
		Dir: dir, Part: pt, Dim: table.Cols, Capacity: c, Learnable: learnable, Throttle: th,
		Init: func(id int32, row []float32) { copy(row, table.Row(int(id))) },
	})
	if err != nil {
		edges.Close()
		t.Fatal(err)
	}
	src := NewSource(pt, g.NumRels, nodes, edges)
	t.Cleanup(func() { src.Close() })
	return src
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
	src := memSource(g, pt, g.Features, false)

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
	acc, err := EvaluateNC(&tr.task.(*ncTask).cfg, tr.Src.Nodes, adj, g.Labels, g.ValidNodes, 99)
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
	src := diskSource(t, g, pt, g.Features, false, 4, nil)

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
func lpFixture(t *testing.T, pol policy.Policy, disk bool, p, c int, seed int64) (*Trainer, *graph.Graph) {
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

	src := memSource(g, pt, emb, true)
	if disk {
		src = diskSource(t, g, pt, emb, true, c, nil)
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
	return NewLP(cfg, src, pol), g
}

func TestLPInMemoryLearns(t *testing.T) {
	tr, _ := lpFixture(t, policy.InMemory{P: 4}, false, 4, 4, 11)
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
	tr, g := lpFixture(t, pol, true, 8, 4, 13)
	var last EpochStats
	var read int64
	for e := 0; e < 4; e++ {
		st, err := tr.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last, read = st, read+st.IO.BytesRead
	}
	if last.Metric < 0.12 {
		t.Fatalf("disk COMET train MRR %.4f (random ≈ 0.04)", last.Metric)
	}
	if last.Examples != len(g.Edges) {
		t.Fatalf("epoch consumed %d examples, want %d (every training edge exactly once)", last.Examples, len(g.Edges))
	}
	// The 2c frames hold all eight partitions, so only the first epoch
	// reads.
	if read == 0 {
		t.Fatal("disk training reported no IO")
	}
	if last.Visits < 2 {
		t.Fatal("COMET should need multiple partition sets")
	}
}

func TestLPDiskBetaRuns(t *testing.T) {
	pol := policy.Beta{P: 8, C: 4}
	tr, g := lpFixture(t, pol, true, 8, 4, 17)
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
	src := memSource(g, pt, emb, true)

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

	// Raw ranking against every entity must beat random (1/|V| ≈ 0.002).
	stats := eval.Ranking(eval.RankingConfig{Dec: dec, Rel: dec.Rel.Value, Table: emb}, g.ValidEdges)
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

// pinnedPlan is a policy that returns one hand-built plan every epoch.
type pinnedPlan struct{ plan policy.Plan }

func (p pinnedPlan) NewEpochPlan(*rand.Rand) *policy.Plan {
	pl := p.plan
	return &pl
}

func (pinnedPlan) Name() string { return "pinned" }

// TestLPRefusesBucketOutsideItsVisit: a plan that assigns a training
// bucket outside its visit's memory set (breaking policy.Plan.Verify's
// invariant 2) fails the epoch with an error naming the visit and the
// bucket, before anything trains or is read: no step lands, not even the
// valid first visit's, and the epoch counter stays put. In memory and on
// disk alike.
func TestLPRefusesBucketOutsideItsVisit(t *testing.T) {
	pol := pinnedPlan{policy.Plan{NumPartitions: 4, Visits: []policy.Visit{
		{Mem: []int{0, 1}, Buckets: [][2]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}},
		{Mem: []int{1, 2}, Buckets: [][2]int32{{1, 2}, {3, 1}}},
	}}}
	for _, disk := range []bool{false, true} {
		tr, _ := lpFixture(t, pol, disk, 4, 2, 61)
		before, _, err := tr.Src.Nodes.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		edgeReads := tr.Src.Edges.Stats().Snapshot()
		_, err = tr.TrainEpoch(context.Background())
		if err == nil || !strings.Contains(err.Error(), "visit 1") || !strings.Contains(err.Error(), "(3,1)") {
			t.Fatalf("disk=%v: TrainEpoch returned %v, want an error naming visit 1 and bucket (3,1)", disk, err)
		}
		after, _, err := tr.Src.Nodes.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !slices.Equal(after.Data, before.Data):
			t.Fatalf("disk=%v: the refused epoch changed the embedding table", disk)
		case tr.Epoch() != 0:
			t.Fatalf("disk=%v: the refused epoch advanced the epoch counter to %d", disk, tr.Epoch())
		case tr.Src.Edges.Stats().Snapshot() != edgeReads:
			t.Fatalf("disk=%v: the refused epoch read edges", disk)
		}
	}
}
