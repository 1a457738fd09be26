package marius_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/marius"
)

// The observability determinism contract: a fully instrumented run
// (metrics registry + trace file) writes a byte-identical checkpoint
// to an uninstrumented run of the same configuration, and reports the
// same losses. Instrumentation observes the trajectory; it must never
// be part of it.
func TestCheckpointByteIdenticalWithObservability(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, opts ...marius.Option) (string, []float64) {
		g := gen.KG(gen.KGConfig{
			NumEntities: 900, NumRelations: 6, NumEdges: 9000,
			ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 41,
		})
		all := append([]marius.Option{
			marius.WithModel(marius.GraphSage), marius.WithFanouts(6),
			marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
			marius.WithDisk(t.TempDir(), marius.Partitions(16), marius.Capacity(4), marius.LogicalPartitions(8)),
			marius.WithWorkers(2), marius.WithPipeline(2), marius.WithSeed(41),
		}, opts...)
		sess, err := marius.New(marius.LinkPrediction(), g, all...)
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
		path := filepath.Join(dir, name+".ckpt")
		if err := sess.Save(path); err != nil {
			t.Fatal(err)
		}
		return path, losses
	}

	plainPath, plainLoss := run("plain")

	reg := marius.NewMetrics()
	tracePath := filepath.Join(dir, "trace.jsonl")
	tr, err := marius.NewTracer(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	obsPath, obsLoss := run("observed", marius.WithMetrics(reg), marius.WithTrace(tr))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	for e := range plainLoss {
		if plainLoss[e] != obsLoss[e] {
			t.Fatalf("epoch %d loss diverged under instrumentation: %v vs %v", e+1, plainLoss[e], obsLoss[e])
		}
	}
	a, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty checkpoint")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoints differ under instrumentation (%d vs %d bytes)", len(a), len(b))
	}

	// The registry covers training, pipeline, and storage families with
	// non-trivial values.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"train_epochs_total 2",
		"pipeline_visits_loaded_total",
		"pipeline_batches_total",
		`storage_bytes_read_total{store="node"}`,
		`storage_prefetch_hit_rate{store="node"}`,
		"storage_fragcache_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	// The trace file is chrome://tracing-loadable JSON and its spans
	// cover at least the three pipeline stages.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph   string `json:"ph"`
		Cat  string `json:"cat"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	stages := map[string]bool{}
	for _, e := range events {
		if e.Ph == "X" {
			stages[e.Cat+"/"+e.Name] = true
		}
	}
	for _, want := range []string{"pipeline/prefetch", "pipeline/batch_build", "pipeline/compute"} {
		if !stages[want] {
			t.Errorf("trace missing %s spans (have %v)", want, stages)
		}
	}
	// Dirty partitions were evicted during the rotation, so the evict
	// write-back row should be present too.
	if !stages["storage/evict_writeback"] {
		t.Errorf("trace missing storage/evict_writeback spans (have %v)", stages)
	}
}
