package tensor_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/marius"
)

// The differentials above the kernels: what the assembly (axpy, and the
// softmaxes' exp) must leave untouched is not a matrix but a checkpoint
// and a served encoding. Each
// test runs the same seeded work with the assembly on and forced off and
// compares bytes.

// checkpointsOffAndOn trains one epoch of a session built by build with
// set(false), then with set(true), and returns the two checkpoints.
func checkpointsOffAndOn(t *testing.T, build func(dir string) (*marius.Session, error), set func(t *testing.T, on bool)) (off, on []byte) {
	t.Helper()
	var ckpt [2][]byte
	for i, v := range []bool{false, true} {
		set(t, v)
		dir := t.TempDir()
		sess, err := build(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.TrainEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "epoch1.ckpt")
		if err := sess.Save(path); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if ckpt[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return ckpt[0], ckpt[1]
}

// epochBuilds are the sessions whose first epoch the differentials train.
var epochBuilds = map[string]func(dir string) (*marius.Session, error){
	// Disk-backed COMET with learnable embeddings: negative scoring,
	// its backward and the sparse write-back all sit on axpy.
	"lp": func(dir string) (*marius.Session, error) {
		g := gen.KG(gen.KGConfig{NumEntities: 800, NumRelations: 8, NumEdges: 10000,
			ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 11})
		return marius.New(marius.LinkPrediction(), g,
			marius.WithModel(marius.GraphSage), marius.WithFanouts(8), marius.WithDim(24),
			marius.WithBatchSize(512), marius.WithNegatives(70), marius.WithWorkers(2), marius.WithSeed(11),
			marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)))
	},
	"nc": func(string) (*marius.Session, error) {
		g := gen.SBM(gen.SBMConfig{NumNodes: 1200, NumClasses: 4, AvgDegree: 10, FeatureDim: 13,
			Homophily: 0.85, FeatNoise: 2, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 21})
		return marius.New(marius.NodeClassification(), g,
			marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8), marius.WithDim(20),
			marius.WithBatchSize(64), marius.WithWorkers(2), marius.WithSeed(21))
	},
}

func TestCheckpointsByteIdenticalOnBothAxpyPaths(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2 assembly on this machine: the Go loop is the only path")
	}
	for name, build := range epochBuilds {
		t.Run(name, func(t *testing.T) {
			goLoop, avx2 := checkpointsOffAndOn(t, build, tensor.SetAVX2)
			if len(goLoop) == 0 {
				t.Fatal("empty checkpoint")
			}
			if !bytes.Equal(goLoop, avx2) {
				t.Fatalf("checkpoints differ (%d vs %d bytes): the axpy assembly is not bit-identical to the Go loop", len(goLoop), len(avx2))
			}
		})
	}
}

// TestCheckpointsByteIdenticalWithRawAllocationsPoisoned trains the same
// epochs with every raw (unzeroed) kernel output filled with NaN first: a
// kernel that read one before writing it would change the checkpoint.
func TestCheckpointsByteIdenticalWithRawAllocationsPoisoned(t *testing.T) {
	for name, build := range epochBuilds {
		t.Run(name, func(t *testing.T) {
			zeroed, poisoned := checkpointsOffAndOn(t, build, tensor.SetPoisonRaw)
			if len(zeroed) == 0 {
				t.Fatal("empty checkpoint")
			}
			if !bytes.Equal(zeroed, poisoned) {
				t.Fatalf("checkpoints differ (%d vs %d bytes): a raw allocation was read before it was written", len(zeroed), len(poisoned))
			}
		})
	}
}

// TestEncodeDenseByteIdenticalOnBothAxpyPaths runs the forward that
// evaluation and serving share (internal/encode) on both paths.
func TestEncodeDenseByteIdenticalOnBothAxpyPaths(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2 assembly on this machine: the Go loop is the only path")
	}
	g := gen.SBM(gen.SBMConfig{NumNodes: 400, NumClasses: 4, AvgDegree: 8, FeatureDim: 21,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 5})
	adj := graph.BuildAdjacency(g.NumNodes, g.Edges)
	ps := nn.NewParamSet()
	cfg := encode.Config{Encoder: gnn.BuildSage(ps, []int{21, 13, 5}, gnn.Mean, rand.New(rand.NewSource(5))),
		Params: ps, Fanouts: []int{6, 6}, Dirs: graph.Both, Workers: 2}
	targets := make([]int32, 50)
	for i := range targets {
		targets[i] = int32(i * 3)
	}
	var out [2][]float32
	for i, on := range []bool{false, true} {
		tensor.SetAVX2(t, on)
		fwd := encode.New(cfg, adj, 1)
		enc, err := fwd.EncodeDense(storage.NewMemoryNodeStore(g.Features, false), fwd.SampleSeeded(42, targets))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = append([]float32(nil), enc.Value.Data...)
	}
	if len(out[0]) != len(targets)*5 || len(out[1]) != len(out[0]) {
		t.Fatalf("encoded %d and %d values, want %d", len(out[0]), len(out[1]), len(targets)*5)
	}
	for j, v := range out[0] {
		if math.Float32bits(v) != math.Float32bits(out[1][j]) {
			t.Fatalf("EncodeDense element %d: Go loop %v, assembly %v", j, v, out[1][j])
		}
	}
}
