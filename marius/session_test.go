package marius_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/marius"
)

func TestNodeClassificationMemAndDisk(t *testing.T) {
	for _, name := range []string{"mem", "disk"} {
		g := gen.SBM(*smallNC(1))
		opts := []marius.Option{
			marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8),
			marius.WithDim(16), marius.WithBatchSize(256), marius.WithSeed(1),
		}
		if name == "disk" {
			opts = append(opts, marius.WithDisk(t.TempDir(), marius.Partitions(8), marius.Capacity(4)))
		}
		sess, err := marius.New(marius.NodeClassification(), g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), marius.Epochs(5)); err != nil {
			t.Fatal(err)
		}
		acc, err := sess.Evaluate(marius.TestSplit)
		if err != nil {
			t.Fatal(err)
		}
		if acc.Task != marius.TaskNC || acc.Metric != "accuracy" || acc.Split != marius.TestSplit {
			t.Fatalf("malformed eval result %+v", acc)
		}
		if acc.Value < 0.4 {
			t.Fatalf("%s: test accuracy %.3f (chance 0.25)", name, acc.Value)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLinkPredictionModels(t *testing.T) {
	for _, model := range []marius.ModelKind{marius.GraphSage, marius.DistMultOnly, marius.GAT, marius.GCN} {
		g := gen.KG(smallKG(2))
		sess, err := marius.New(marius.LinkPrediction(), g,
			marius.WithModel(model), marius.WithFanouts(8), marius.WithDim(16),
			marius.WithBatchSize(512), marius.WithNegatives(64), marius.WithSeed(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.TrainEpoch(context.Background())
		if err != nil {
			t.Fatalf("model %d: %v", model, err)
		}
		if st.Examples != len(g.Edges) {
			t.Fatalf("model %d consumed %d/%d edges", model, st.Examples, len(g.Edges))
		}
		ev, err := sess.Evaluate(marius.ValidSplit)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Metric != "MRR" || ev.Split != marius.ValidSplit {
			t.Fatalf("malformed eval result %+v", ev)
		}
		sess.Close()
	}
}

func TestDiskPolicies(t *testing.T) {
	for _, pk := range []marius.PolicyKind{marius.COMET, marius.BETA} {
		g := gen.KG(smallKG(3))
		sess, err := marius.New(marius.LinkPrediction(), g,
			marius.WithModel(marius.DistMultOnly), marius.WithPolicy(pk),
			marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
			marius.WithDisk(t.TempDir(), marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)),
			marius.WithSeed(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			st, err := sess.TrainEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// The 2c frames hold all eight partitions: the first epoch
			// reads each once, and the second reads none.
			if read := st.IO.BytesRead; (read == 0) != (epoch > 0) {
				t.Fatalf("epoch %d: read %d bytes from disk", epoch, read)
			}
		}
		sess.Close()
	}
}

func TestAutotuneWhenUnspecified(t *testing.T) {
	g := gen.KG(gen.KGConfig{
		NumEntities: 2000, NumRelations: 8, NumEdges: 16000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 4,
	})
	sess, err := marius.New(marius.LinkPrediction(), g,
		marius.WithModel(marius.DistMultOnly),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
		marius.WithDisk(t.TempDir()),
		marius.WithAutotune(80<<10, 4<<10),
		marius.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Visits < 2 {
		t.Fatal("auto-tuned disk training should need multiple partition sets")
	}
}

func TestRunLoopCallbacksAndEarlyStopping(t *testing.T) {
	g := gen.KG(smallKG(5))
	sess, err := marius.New(marius.LinkPrediction(), g,
		marius.WithModel(marius.DistMultOnly), marius.WithDim(8),
		marius.WithBatchSize(512), marius.WithNegatives(32), marius.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	calls := 0
	res, err := sess.Run(context.Background(),
		marius.Epochs(10),
		// minDelta of 10 can never be met: the metric "plateaus"
		// immediately and patience=1 stops the run after epoch 2.
		marius.EarlyStopping(1, 10),
		marius.OnEpoch(func(p marius.Progress) error {
			calls++
			if p.Valid == nil {
				t.Fatal("early stopping must evaluate every epoch")
			}
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != marius.EarlyStopped {
		t.Fatalf("stopped = %q, want early-stopped", res.Stopped)
	}
	if len(res.Epochs) != 2 || calls != 2 {
		t.Fatalf("ran %d epochs with %d callbacks, want 2/2", len(res.Epochs), calls)
	}
	if res.Best == nil || len(res.Valid) != 2 {
		t.Fatalf("validation history missing: best=%v n=%d", res.Best, len(res.Valid))
	}
}

func TestRunLoopErrStop(t *testing.T) {
	g := gen.KG(smallKG(6))
	sess, err := marius.New(marius.LinkPrediction(), g,
		marius.WithModel(marius.DistMultOnly), marius.WithDim(8),
		marius.WithBatchSize(512), marius.WithNegatives(32), marius.WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(),
		marius.Epochs(10),
		marius.OnEpoch(func(p marius.Progress) error {
			if p.Epoch >= 2 {
				return marius.ErrStop
			}
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != marius.StoppedByCallback || len(res.Epochs) != 2 {
		t.Fatalf("stopped=%q after %d epochs, want callback/2", res.Stopped, len(res.Epochs))
	}
}

func TestCancellationBeforeAndMidEpoch(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 20_000, NumClasses: 8, AvgDegree: 12, FeatureDim: 32,
		Homophily: 0.8, FeatNoise: 2.0, TrainFrac: 0.3, ValidFrac: 0.05, TestFrac: 0.05,
		Seed: 7,
	})
	sess, err := marius.New(marius.NodeClassification(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(15, 10, 5),
		marius.WithDim(32), marius.WithBatchSize(256), marius.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Already-canceled context: no work happens.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Run(canceled, marius.Epochs(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stopped != marius.Canceled || len(res.Epochs) != 0 {
		t.Fatalf("stopped=%q epochs=%d, want canceled/0", res.Stopped, len(res.Epochs))
	}

	// Mid-epoch: calibrate with one full epoch, then cancel a fraction of
	// the way into the next one and expect it to abort with ctx.Err().
	start := time.Now()
	if _, err := sess.TrainEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	delay := full / 10
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), delay)
	defer cancel2()
	start = time.Now()
	_, err = sess.TrainEpoch(ctx)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-epoch err = %v, want context.DeadlineExceeded", err)
	}
	if aborted > full {
		t.Fatalf("canceled epoch took %v, full epoch %v: cancellation did not shorten it", aborted, full)
	}
}
