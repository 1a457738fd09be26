package marius_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/marius"
)

// Tests for the pipelined out-of-core executor behind WithPipeline: the
// equivalence contract (a pipelined epoch computes the exact trajectory
// of the serial one) and race coverage for the prefetcher/builder/compute
// handoffs (`go test -race` runs these in the dedicated CI job).

// lpDiskSession builds an on-disk LP session with the given pipeline
// depth and workers over an identically generated graph.
func lpDiskSession(t *testing.T, dir string, depth, workers int) *marius.Session {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 900, NumRelations: 6, NumEdges: 9000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 41,
	})
	sess, err := marius.New(marius.LinkPrediction(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
		marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)),
		marius.WithWorkers(workers), marius.WithPipeline(depth), marius.WithSeed(41),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// The headline equivalence property: a pipelined multi-worker run writes
// a byte-identical checkpoint to the serial single-worker run — same
// visit sequence, same batch order, same per-batch RNG, same kernels —
// and reports identical per-epoch losses along the way.
func TestPipelinedCheckpointMatchesSerialByteForByte(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, depth, workers int) (string, []float64, int) {
		sess := lpDiskSession(t, t.TempDir(), depth, workers)
		defer sess.Close()
		var losses []float64
		visits := 0
		res, err := sess.Run(context.Background(), marius.Epochs(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Epochs {
			losses = append(losses, st.Loss)
			visits += st.Visits
		}
		path := filepath.Join(dir, name+".ckpt")
		if err := sess.Save(path); err != nil {
			t.Fatal(err)
		}
		return path, losses, visits
	}

	serialPath, serialLoss, serialVisits := run("serial", 0, 1)
	pipePath, pipeLoss, pipeVisits := run("pipelined", 2, 3)

	if serialVisits != pipeVisits {
		t.Fatalf("visit sequence diverged: serial %d visits, pipelined %d", serialVisits, pipeVisits)
	}
	for e := range serialLoss {
		if serialLoss[e] != pipeLoss[e] {
			t.Fatalf("epoch %d loss diverged: serial %v, pipelined %v", e+1, serialLoss[e], pipeLoss[e])
		}
	}
	a, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pipePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty checkpoint")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoints differ (%d vs %d bytes): pipelined training no longer reproduces the serial trajectory", len(a), len(b))
	}
}

// Pipeline stats surface through EpochStats: a pipelined disk epoch must
// report its depth, prefetched visits, and partition prefetch hits.
func TestPipelineStatsReported(t *testing.T) {
	sess := lpDiskSession(t, t.TempDir(), 2, 2)
	defer sess.Close()
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipeline.Depth != 2 || st.Pipeline.Workers != 2 {
		t.Fatalf("pipeline config not reported: %+v", st.Pipeline)
	}
	if st.Pipeline.VisitsLoaded != st.Visits {
		t.Fatalf("prefetcher loaded %d of %d visits", st.Pipeline.VisitsLoaded, st.Visits)
	}
	if st.IO.PrefetchHits == 0 {
		t.Fatalf("pipelined epoch recorded no partition prefetch hits: %+v", st.IO)
	}
	// Depth 0 with one worker is the same executor with nothing running
	// ahead: it reports its geometry, every visit loaded, and the compute
	// stage waiting out each load and each build.
	serial := lpDiskSession(t, t.TempDir(), 0, 1)
	defer serial.Close()
	st0, err := serial.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st0.Pipeline.Depth != 0 || st0.Pipeline.Workers != 1 || st0.Pipeline.VisitsLoaded != st0.Visits {
		t.Fatalf("depth-0 epoch misreported its pipeline: %+v", st0.Pipeline)
	}
	if st0.Pipeline.LoadWait == 0 || st0.Pipeline.BatchWait == 0 {
		t.Fatalf("depth-0 epoch waited for nothing: %+v", st0.Pipeline)
	}
}

// A nil context never cancels: both tasks train through it (the epoch
// driver normalises it once, before the executor sees it).
func TestTrainEpochNilContext(t *testing.T) {
	for name, sess := range map[string]*marius.Session{
		"lp": lpDiskSession(t, t.TempDir(), 0, 1),
		"nc": ncDiskSession(t, t.TempDir(), 2, 2),
	} {
		st, err := sess.TrainEpoch(nil) //nolint:staticcheck // the documented nil-context contract
		if err != nil || st.Epoch != 1 || st.Batches == 0 {
			t.Errorf("%s: TrainEpoch(nil) = %+v, %v", name, st, err)
		}
		sess.Close()
	}
}

// Race coverage: full NC and LP epochs on disk with WithPipeline(2) and
// WithWorkers(4) exercise every cross-goroutine handoff — prefetcher to
// compute, build workers to compute, async partition staging, and the
// staging-pool recycling.
func TestParallelNCEpochWithPipeline2Workers4(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 800, NumClasses: 4, AvgDegree: 8, FeatureDim: 8,
		Homophily: 0.8, FeatNoise: 2.0, TrainFrac: 0.5, ValidFrac: 0.1, TestFrac: 0.1,
		Seed: 43,
	})
	sess, err := marius.New(marius.NodeClassification(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6, 6),
		marius.WithDim(12), marius.WithBatchSize(64),
		marius.WithDisk(t.TempDir(), marius.Partitions(8), marius.Capacity(2)),
		marius.WithWorkers(4), marius.WithPipeline(2), marius.WithSeed(43),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches == 0 || st.Examples == 0 {
		t.Fatalf("pipelined NC epoch trained nothing: %+v", st)
	}
	if st.Visits < 2 {
		t.Fatalf("want a multi-visit rotation to exercise the prefetcher, got %d visits", st.Visits)
	}
	if _, err := sess.Evaluate(marius.ValidSplit); err != nil {
		t.Fatal(err)
	}
}

func TestParallelLPEpochWithPipeline2Workers4(t *testing.T) {
	sess := lpDiskSession(t, t.TempDir(), 2, 4)
	defer sess.Close()
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches == 0 || st.Examples == 0 {
		t.Fatalf("pipelined LP epoch trained nothing: %+v", st)
	}
	if _, err := sess.Evaluate(marius.ValidSplit); err != nil {
		t.Fatal(err)
	}
}

// Cancellation mid-epoch must abort a pipelined run promptly and leave
// the session retryable from the same epoch.
func TestPipelinedEpochCancellation(t *testing.T) {
	sess := lpDiskSession(t, t.TempDir(), 2, 2)
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.TrainEpoch(ctx); err == nil {
		t.Fatal("canceled pipelined epoch returned nil error")
	}
	// The failed epoch did not advance the counter; a clean retry works.
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("epoch counter advanced on canceled epoch: %d", st.Epoch)
	}
}
