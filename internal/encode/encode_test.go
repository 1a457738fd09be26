package encode_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// fixture is a small labelled graph with a 2-layer GraphSage encoder over
// its features.
type fixture struct {
	g       *graph.Graph
	adj     *graph.Adjacency
	cfg     encode.Config
	targets []int32
}

func newFixture() *fixture {
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 400, NumClasses: 4, AvgDegree: 8, FeatureDim: 20,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 5,
	})
	ps := nn.NewParamSet()
	enc := gnn.BuildSage(ps, []int{20, 12, 4}, gnn.Mean, rand.New(rand.NewSource(5)))
	targets := make([]int32, 37)
	for i := range targets {
		targets[i] = int32(i * 7)
	}
	return &fixture{
		g: g, adj: graph.BuildAdjacency(g.NumNodes, g.Edges), targets: targets,
		cfg: encode.Config{Encoder: enc, Params: ps, Fanouts: []int{5, 5}, Dirs: graph.Both, Workers: 2},
	}
}

// trainSideForward is the trainers' compute-stage forward (train/nc.go):
// gather base rows into a tape leaf, bind parameters, encode.Apply.
func (f *fixture) trainSideForward(d *sampler.DENSE) *tensor.Tensor {
	tp := tensor.NewTapeWith(tensor.NewCompute(1, tensor.NewArena()))
	binds := f.cfg.Params.BindInto(tp, nil)
	h0t := tp.Alloc(len(d.NodeIDs), f.g.FeatureDim())
	for i, id := range d.NodeIDs {
		copy(h0t.Row(i), f.g.Features.Row(int(id)))
	}
	return encode.Apply(tp, binds, f.cfg.Encoder, d, nil, tp.Leaf(h0t, false)).Value
}

func sameBytes(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], w)
		}
	}
}

// TestEncodeDenseEqualsTrainSideForward pins the package's reason to
// exist: the forward that evaluation and serving run is byte-identical to
// the trainers' forward for the same parameters and sample, from a float32
// table and from a quantized one, and a Forward can be reused.
func TestEncodeDenseEqualsTrainSideForward(t *testing.T) {
	f := newFixture()
	fwd := encode.New(f.cfg, f.adj, 9)
	store := storage.NewMemoryNodeStore(f.g.Features, false)
	for round := 0; round < 2; round++ {
		seed := int64(100 + round)
		want := f.trainSideForward(sampler.New(f.adj, f.cfg.Fanouts, f.cfg.Dirs, seed).Sample(f.targets)).Clone()
		d := fwd.SampleSeeded(seed, f.targets)
		got, err := fwd.EncodeDense(store, d)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value.Rows != len(f.targets) || got.Value.Cols != 4 {
			t.Fatalf("encoded %dx%d, want %dx4", got.Value.Rows, got.Value.Cols, len(f.targets))
		}
		sameBytes(t, "EncodeDense vs train-side forward", got.Value, want)
		fwd.Recycle(d)
	}

	// A quantized store dequantizes on gather: same bytes as encoding the
	// dequantized table.
	q := tensor.Quantize(f.g.Features, tensor.QuantF16)
	viaQ, err := fwd.EncodeDense(storage.NewQuantMemoryNodeStore(q), fwd.SampleSeeded(7, f.targets))
	if err != nil {
		t.Fatal(err)
	}
	gotQ := viaQ.Value.Clone()
	viaDeq, err := fwd.EncodeDense(storage.NewMemoryNodeStore(q.Dequant(), false), fwd.SampleSeeded(7, f.targets))
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "quantized store vs dequantized float32 store", gotQ, viaDeq.Value)
}

// TestFullTableEqualsPerChunkEncode checks FullTable's contract: row v is
// what a seeded per-chunk encode yields, independent of the worker count.
func TestFullTableEqualsPerChunkEncode(t *testing.T) {
	f := newFixture()
	store := storage.NewMemoryNodeStore(f.g.Features, false)
	table, err := encode.FullTable(f.cfg, f.adj, store, f.g.NumNodes, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial := f.cfg
	serial.Workers = 1
	again, err := encode.FullTable(serial, f.adj, store, f.g.NumNodes, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "FullTable workers=2 vs workers=1", table, again)

	ids := make([]int32, f.g.NumNodes) // one chunk: fewer than 1024 nodes
	for i := range ids {
		ids[i] = int32(i)
	}
	fwd := encode.New(f.cfg, f.adj, 0)
	enc, err := fwd.EncodeDense(store, fwd.SampleSeeded(3, ids))
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "FullTable vs seeded chunk encode", table, enc.Value)
}
