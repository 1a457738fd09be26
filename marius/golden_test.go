package marius_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/tensor"
	"repro/marius"
)

// Golden trajectories: per-epoch loss bits and the checkpoint hash of a
// tiny LP disk-COMET run and a tiny NC disk run, captured at commit
// 11146a1 through the fully inline epoch loop (pipeline.runSerial,
// depth 0, one worker) that the single executor path replaced. They keep
// that loop as the oracle now that it is gone: without them the
// pipelined-vs-serial differentials would compare the executor with
// itself. Identical under -tags purego (the axpy and exp paths are
// bit-identical), but only on amd64 with FMA: math.Exp, under every
// softmax, uses fused multiply-adds exactly when the CPU has FMA (Go's
// math.useFMA), so the losses already differ between amd64 machines with
// and without it, and on other architectures.
type golden struct {
	lossBits []uint64
	ckptSHA  string
}

var (
	goldenLP = golden{
		lossBits: []uint64{0x4010527f2286bca2, 0x400cc190f3333333},
		ckptSHA:  "2528fb6992cd0f198d3457e3fbd4b024e7a2b25d9a9b71caae17420a23c74fee",
	}
	goldenNC = golden{
		lossBits: []uint64{0x400004277c000000, 0x3ff0c61a72000000},
		ckptSHA:  "a98821799c394aef9907c64da46db34a0d2815a43539c16a403577bfa192c347",
	}
)

func ncDiskSession(t *testing.T, dir string, depth, workers int) *marius.Session {
	t.Helper()
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 800, NumClasses: 4, AvgDegree: 8, FeatureDim: 8,
		Homophily: 0.8, FeatNoise: 2.0, TrainFrac: 0.5, ValidFrac: 0.1, TestFrac: 0.1,
		Seed: 43,
	})
	sess, err := marius.New(marius.NodeClassification(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6, 6),
		marius.WithDim(12), marius.WithBatchSize(64),
		marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(2)),
		marius.WithWorkers(workers), marius.WithPipeline(depth), marius.WithSeed(43),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestGoldenTrajectories(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens were captured on amd64")
	}
	if !tensor.HasFMA() {
		t.Skip("goldens were captured where math.Exp uses FMA; without it every softmax rounds differently")
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T, dir string, depth, workers int) *marius.Session
		want golden
	}{
		{"lp-disk-comet", lpDiskSession, goldenLP},
		{"nc-disk", ncDiskSession, goldenNC},
	} {
		for _, geo := range [][2]int{{0, 1}, {0, 4}, {2, 1}, {2, 4}} {
			t.Run(fmt.Sprintf("%s/depth%d-workers%d", tc.name, geo[0], geo[1]), func(t *testing.T) {
				sess := tc.open(t, t.TempDir(), geo[0], geo[1])
				defer sess.Close()
				res, err := sess.Run(context.Background(), marius.Epochs(len(tc.want.lossBits)))
				if err != nil {
					t.Fatal(err)
				}
				var got golden
				for _, st := range res.Epochs {
					got.lossBits = append(got.lossBits, math.Float64bits(st.Loss))
				}
				path := filepath.Join(t.TempDir(), "golden.ckpt")
				if err := sess.Save(path); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got.ckptSHA = fmt.Sprintf("%x", sha256.Sum256(raw))
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("trajectory left the golden:\n got  %#x %s\n want %#x %s",
						got.lossBits, got.ckptSHA, tc.want.lossBits, tc.want.ckptSHA)
				}
			})
		}
	}
}
