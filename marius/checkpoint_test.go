package marius_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/marius"
)

// lpSession builds an LP session over a freshly generated (identical)
// graph; workers=1 keeps the batch order deterministic so resumed runs
// reproduce the original trajectory exactly.
func lpSession(t *testing.T, disk bool, dir string) *marius.Session {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 800, NumRelations: 8, NumEdges: 10000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 11,
	})
	opts := []marius.Option{
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
		marius.WithWorkers(1), marius.WithSeed(11),
	}
	if disk {
		opts = append(opts, marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)))
	}
	sess, err := marius.New(marius.LinkPrediction(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func ncSession(t *testing.T) *marius.Session {
	t.Helper()
	g := gen.SBM(*smallNC(21))
	sess, err := marius.New(marius.NodeClassification(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8),
		marius.WithDim(16), marius.WithBatchSize(256),
		marius.WithWorkers(1), marius.WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// The headline checkpoint property: save after training, restore into a
// freshly built session over an identically generated graph, and the
// evaluation metrics are bit-identical.
func TestCheckpointRoundTripIdenticalMetrics(t *testing.T) {
	for _, disk := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "lp.ckpt")

		orig := lpSession(t, disk, t.TempDir())
		if _, err := orig.Run(context.Background(), marius.Epochs(2)); err != nil {
			t.Fatal(err)
		}
		if err := orig.Save(path); err != nil {
			t.Fatal(err)
		}
		want, err := orig.Evaluate(marius.ValidSplit)
		if err != nil {
			t.Fatal(err)
		}
		orig.Close()

		restored := lpSession(t, disk, t.TempDir())
		defer restored.Close()
		if err := restored.Restore(path); err != nil {
			t.Fatal(err)
		}
		if restored.Task().Epoch() != 2 {
			t.Fatalf("restored epoch %d, want 2", restored.Task().Epoch())
		}
		got, err := restored.Evaluate(marius.ValidSplit)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value {
			t.Fatalf("disk=%v: restored MRR %.6f != saved MRR %.6f", disk, got.Value, want.Value)
		}
	}
}

// Resuming training from a checkpoint must continue the exact trajectory:
// 2 epochs + save + restore + 2 epochs == 4 straight epochs.
func TestCheckpointResumeContinuesTrajectory(t *testing.T) {
	straight := lpSession(t, false, "")
	if _, err := straight.Run(context.Background(), marius.Epochs(4)); err != nil {
		t.Fatal(err)
	}
	want, err := straight.Evaluate(marius.ValidSplit)
	if err != nil {
		t.Fatal(err)
	}
	straight.Close()

	path := filepath.Join(t.TempDir(), "resume.ckpt")
	first := lpSession(t, false, "")
	if _, err := first.Run(context.Background(), marius.Epochs(2), marius.CheckpointTo(path, 2)); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := lpSession(t, false, "")
	defer second.Close()
	if err := second.Restore(path); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Run(context.Background(), marius.Epochs(2)); err != nil {
		t.Fatal(err)
	}
	got, err := second.Evaluate(marius.ValidSplit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("resumed MRR %.6f != straight-through MRR %.6f", got.Value, want.Value)
	}
}

func TestCheckpointNCRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nc.ckpt")
	orig := ncSession(t)
	if _, err := orig.Run(context.Background(), marius.Epochs(3)); err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Evaluate(marius.TestSplit)
	if err != nil {
		t.Fatal(err)
	}
	orig.Close()

	restored := ncSession(t)
	defer restored.Close()
	if err := restored.Restore(path); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Evaluate(marius.TestSplit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("restored accuracy %.6f != saved accuracy %.6f", got.Value, want.Value)
	}
}

func TestCheckpointTaskMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lp.ckpt")
	lp := lpSession(t, false, "")
	if err := lp.Save(path); err != nil {
		t.Fatal(err)
	}
	lp.Close()

	nc := ncSession(t)
	defer nc.Close()
	if err := nc.Restore(path); !errors.Is(err, marius.ErrTaskMismatch) {
		t.Fatalf("err = %v, want ErrTaskMismatch", err)
	}
}

// TestRestoreMismatchNamesField: shape disagreements between checkpoint
// and session are rejected at Restore with a typed error naming the
// offending field, instead of panicking in a kernel mid-forward. The
// same error matches both the task-mismatch sentinel (compatibility)
// and ErrCheckpointMismatch (the contract shared with the inference
// loader).
func TestRestoreMismatchNamesField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nc.ckpt")
	orig := ncSession(t)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	orig.Close()

	other, err := marius.New(marius.NodeClassification(), gen.SBM(*smallNC(21)),
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8),
		marius.WithDim(32), marius.WithBatchSize(256), // dim 32: checkpoint was dim 16
		marius.WithWorkers(1), marius.WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	err = other.Restore(path)
	if !errors.Is(err, marius.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "dim") {
		t.Fatalf("error %q does not name the offending field", err)
	}
}

// TestRestoreRefusesTruncatedTable: a checkpoint whose table holds fewer
// values than its recorded shape is refused with ErrCheckpointMismatch
// naming the table, and with ErrTaskMismatch as every restore mismatch is, on a memory and a disk session alike, instead of
// restoring with the missing rows zeroed.
func TestRestoreRefusesTruncatedTable(t *testing.T) {
	for _, disk := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "lp.ckpt")
		orig := lpSession(t, disk, t.TempDir())
		if err := orig.Save(path); err != nil {
			t.Fatal(err)
		}
		orig.Close()
		cp, err := ckpt.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		cp.Table = cp.Table[:len(cp.Table)/2]
		if err := ckpt.Write(path, cp); err != nil {
			t.Fatal(err)
		}

		sess := lpSession(t, disk, t.TempDir())
		err = sess.Restore(path)
		sess.Close()
		if !errors.Is(err, marius.ErrCheckpointMismatch) || !errors.Is(err, marius.ErrTaskMismatch) ||
			!strings.Contains(err.Error(), "table") {
			t.Fatalf("disk=%v: Restore = %v, want ErrCheckpointMismatch and ErrTaskMismatch naming the table", disk, err)
		}
	}
}

// TestNewDoesNotMutateGraph: New trains on a relabeled copy, so the
// caller's graph is byte-equal before and after, and two sessions over
// one graph value train the same trajectory to the same checkpoint bytes.
func TestNewDoesNotMutateGraph(t *testing.T) {
	kcfg := smallKG(61)
	ncfg := smallNC(62)
	for _, tc := range []struct {
		name string
		task func() marius.Task
		gen  func() *graph.Graph
		opts []marius.Option
	}{
		{"lp", marius.LinkPrediction, func() *graph.Graph { return gen.KG(kcfg) },
			[]marius.Option{marius.WithDim(8), marius.WithFanouts(4), marius.WithNegatives(16), marius.WithSeed(61)}},
		{"nc", marius.NodeClassification, func() *graph.Graph { return gen.SBM(*ncfg) },
			[]marius.Option{marius.WithDim(8), marius.WithFanouts(4, 4), marius.WithSeed(62)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen()
			run := func() ([]float64, []byte) {
				t.Helper()
				sess, err := marius.New(tc.task(), g, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				res, err := sess.Run(context.Background(), marius.Epochs(2))
				if err != nil {
					t.Fatal(err)
				}
				var losses []float64
				for _, st := range res.Epochs {
					losses = append(losses, st.Loss)
				}
				path := filepath.Join(t.TempDir(), "run.ckpt")
				if err := sess.Save(path); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return losses, raw
			}
			l1, c1 := run()
			if !reflect.DeepEqual(g, tc.gen()) {
				t.Fatal("New changed the caller's graph")
			}
			l2, c2 := run()
			if !slices.Equal(l1, l2) || !bytes.Equal(c1, c2) {
				t.Fatalf("second session over one graph diverged: losses %v vs %v, checkpoints equal %v",
					l1, l2, bytes.Equal(c1, c2))
			}
		})
	}
}

// TestRestoreRefusesOtherDataset: a checkpoint from one prepared dataset
// does not restore into a session over another of the same shape. The
// two datasets are ingested at the same seed and partition count from
// different same-sized graphs; their UUIDs differ because they hash the
// bucket CRCs.
func TestRestoreRefusesOtherDataset(t *testing.T) {
	const seed = int64(71)
	open := func(graphSeed int64) *marius.Session {
		t.Helper()
		exp, err := dataset.Export(gen.KG(smallKG(graphSeed)), t.TempDir(), "tsv")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := dataset.Ingest(exp.Config(dir, "lp", seed, 4)); err != nil {
			t.Fatal(err)
		}
		sess, err := marius.FromDataset(dir, marius.WithModel(marius.DistMultOnly), marius.WithDim(8))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a, b := open(72), open(73)
	defer a.Close()
	defer b.Close()
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(path); err != nil {
		t.Fatalf("restore into its own dataset: %v", err)
	}
	err := b.Restore(path)
	if !errors.Is(err, marius.ErrCheckpointMismatch) || !strings.Contains(err.Error(), "dataset") {
		t.Fatalf("restore into another dataset: err = %v, want ErrCheckpointMismatch naming dataset", err)
	}
}
