package dataset_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/marius"
)

// smallSBM is the node-classification fixture: small enough for fast
// round trips, structured enough that training moves the loss.
func smallSBM() gen.SBMConfig {
	return gen.SBMConfig{
		NumNodes: 600, NumClasses: 6, AvgDegree: 6, FeatureDim: 12,
		Homophily: 0.8, FeatNoise: 1.0,
		TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 5,
	}
}

// smallKG is the link-prediction fixture.
func smallKG() gen.KGConfig {
	return gen.KGConfig{
		NumEntities: 700, NumRelations: 9, NumEdges: 6000, ZipfS: 1.2,
		ValidFrac: 0.03, TestFrac: 0.05, Seed: 3,
	}
}

// trainLosses runs epochs training epochs and returns the exact
// per-epoch mean losses.
func trainLosses(t *testing.T, sess *marius.Session, epochs int) []float64 {
	t.Helper()
	losses := make([]float64, 0, epochs)
	for i := 0; i < epochs; i++ {
		st, err := sess.TrainEpoch(context.Background())
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		losses = append(losses, st.Loss)
	}
	return losses
}

// checkpointBytes saves sess and returns the checkpoint file contents.
// checkpointBytes serializes a session's checkpoint with the dataset
// provenance UUID cleared: a dataset session records the manifest UUID
// while the equivalent in-memory-graph session has none, and the
// byte-identity contract covers the training state, not provenance.
func checkpointBytes(t *testing.T, sess *marius.Session) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := sess.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	cp, err := ckpt.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.DatasetUUID = ""
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameEval evaluates both splits on ref and got with opts and demands
// exactly equal results: the same trained state, evaluated over the same
// bucket-ordered adjacency, scores the same.
func sameEval(t *testing.T, ref, got *marius.Session, opts ...marius.EvalOption) {
	t.Helper()
	for _, split := range []marius.Split{marius.ValidSplit, marius.TestSplit} {
		want, err := ref.Evaluate(split, opts...)
		if err != nil {
			t.Fatalf("graph-session evaluate: %v", err)
		}
		res, err := got.Evaluate(split, opts...)
		if err != nil {
			t.Fatalf("dataset-session evaluate: %v", err)
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("evaluation diverged: graph session %v %v, dataset session %v %v", want, want.Hits, res, res.Hits)
		}
	}
}

// TestRoundTrip is the ingestion fidelity contract over both tasks, held
// in memory and on disk: export a generated graph to raw files, ingest it
// with a memory cap small enough to force a multi-run external sort, and
// train from the prepared directory. The in-memory-graph session trains
// serially, the dataset session pipelined; the loss trajectory, the
// checkpoint and both splits' evaluation (for link prediction sampled and
// filtered ranking) must be identical at the same seed. On disk the
// dataset's bucket file must also be byte-identical to the one the graph
// session's own store sorts at startup. The four cells run every branch
// of the one store assembly both sessions take.
func TestRoundTrip(t *testing.T) {
	nc := []marius.Option{marius.WithDim(8), marius.WithFanouts(4, 4), marius.WithBatchSize(128)}
	lp := []marius.Option{marius.WithDim(8), marius.WithFanouts(5), marius.WithBatchSize(512), marius.WithNegatives(64)}
	for _, tc := range []struct {
		name, task, format string
		seed               int64
		parts              int
		// memLimit forces the external sort into several runs: ~3600 NC
		// and ~5.5k LP edges at 24 B of sort working set each.
		memLimit int64
		opts     []marius.Option
		// disk, when non-nil, is the buffer the sessions page through.
		disk  []marius.DiskOption
		evals [][]marius.EvalOption
	}{
		{"nc-memory", "nc", "tsv", 7, 4, 24 * 1000, nc, nil, [][]marius.EvalOption{nil}},
		{"nc-disk", "nc", "tsv", 7, 4, 24 * 1000, nc, []marius.DiskOption{marius.Capacity(2)}, [][]marius.EvalOption{nil}},
		{"lp-memory", "lp", "csv", 11, 8, 24 * 1500, lp, nil,
			[][]marius.EvalOption{nil, {marius.FilteredEval()}}},
		{"lp-disk", "lp", "csv", 11, 8, 24 * 1500, lp,
			[]marius.DiskOption{marius.Capacity(4), marius.LogicalPartitions(4)},
			[][]marius.EvalOption{nil, {marius.FilteredEval()}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.SBM(smallSBM())
			if tc.task == "lp" {
				g = gen.KG(smallKG())
			}
			exp, err := dataset.Export(g, t.TempDir(), tc.format)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			out := t.TempDir()
			icfg := exp.Config(out, tc.task, tc.seed, tc.parts)
			icfg.MemLimit = tc.memLimit
			st, err := dataset.Ingest(icfg)
			if err != nil {
				t.Fatalf("ingest: %v", err)
			}
			if st.SpillRuns < 2 {
				t.Fatalf("memory cap %d produced %d spill runs, want >= 2 (external sort not exercised)",
					icfg.MemLimit, st.SpillRuns)
			}
			if st.MaxBufferedBytes > icfg.MemLimit {
				t.Fatalf("peak sort working set %d exceeds the %d-byte cap", st.MaxBufferedBytes, icfg.MemLimit)
			}
			if _, err := dataset.Validate(out); err != nil {
				t.Fatalf("validate: %v", err)
			}

			common := append([]marius.Option{marius.WithSeed(tc.seed), marius.WithWorkers(2)}, tc.opts...)
			refOpts := slices.Concat(common, []marius.Option{marius.WithPartitions(tc.parts)})
			gotOpts := slices.Concat(common, []marius.Option{marius.WithPipeline(2)})
			refDir := t.TempDir()
			if tc.disk != nil {
				refOpts = slices.Concat(common, []marius.Option{marius.WithDisk(refDir,
					slices.Concat(tc.disk, []marius.DiskOption{marius.Partitions(tc.parts)})...)})
				gotOpts = append(gotOpts, marius.WithDisk(t.TempDir(), tc.disk...))
			}
			task := marius.NodeClassification()
			if tc.task == "lp" {
				task = marius.LinkPrediction()
			}
			ref, err := marius.New(task, g, refOpts...)
			if err != nil {
				t.Fatalf("in-memory-graph session: %v", err)
			}
			defer ref.Close()
			got, err := marius.FromDataset(out, gotOpts...)
			if err != nil {
				t.Fatalf("dataset session: %v", err)
			}
			defer got.Close()

			if tc.disk != nil {
				refEdges, err := os.ReadFile(filepath.Join(refDir, "edges.bin"))
				if err != nil {
					t.Fatal(err)
				}
				dsEdges, err := os.ReadFile(filepath.Join(out, "edges.bin"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refEdges, dsEdges) {
					t.Fatal("ingested edges.bin differs from the graph session's bucket-sorted file")
				}
			}

			refLoss := trainLosses(t, ref, 2)
			gotLoss := trainLosses(t, got, 2)
			for i := range refLoss {
				if refLoss[i] != gotLoss[i] {
					t.Fatalf("epoch %d loss diverged: serial graph session %v, pipelined dataset session %v",
						i, refLoss[i], gotLoss[i])
				}
			}
			if !bytes.Equal(checkpointBytes(t, ref), checkpointBytes(t, got)) {
				t.Fatal("dataset-session checkpoint differs from the graph session's")
			}
			for _, opts := range tc.evals {
				sameEval(t, ref, got, opts...)
			}
		})
	}
}

// TestFormatsAgree ingests the same graph from TSV and binary exports
// and requires identical bucket files and checksums.
func TestFormatsAgree(t *testing.T) {
	g1, g2 := gen.KG(smallKG()), gen.KG(smallKG())
	expT, err := dataset.Export(g1, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	expB, err := dataset.Export(g2, t.TempDir(), "bin")
	if err != nil {
		t.Fatal(err)
	}
	outT, outB := t.TempDir(), t.TempDir()
	if _, err := dataset.Ingest(expT.Config(outT, "lp", 1, 4)); err != nil {
		t.Fatalf("tsv ingest: %v", err)
	}
	if _, err := dataset.Ingest(expB.Config(outB, "lp", 1, 4)); err != nil {
		t.Fatalf("bin ingest: %v", err)
	}
	mt, err := storage.ReadManifest(outT)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := storage.ReadManifest(outB)
	if err != nil {
		t.Fatal(err)
	}
	for b := range mt.BucketCRCs {
		if mt.BucketCRCs[b] != mb.BucketCRCs[b] || mt.BucketCounts[b] != mb.BucketCounts[b] {
			t.Fatalf("bucket %d differs between tsv and bin ingests", b)
		}
	}
	bt, _ := os.ReadFile(filepath.Join(outT, "edges.bin"))
	bb, _ := os.ReadFile(filepath.Join(outB, "edges.bin"))
	if !bytes.Equal(bt, bb) {
		t.Fatal("edges.bin differs between tsv and bin ingests")
	}
}

// TestValidateDetectsCorruption covers the typed corruption contract:
// truncation is caught at open (exact size check), and a flipped byte is
// caught by validate as a *storage.CorruptError naming the bucket —
// never a raw io.ErrUnexpectedEOF.
func TestValidateDetectsCorruption(t *testing.T) {
	exp, err := dataset.Export(gen.KG(smallKG()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "lp", 4, 4)); err != nil {
		t.Fatal(err)
	}
	edgesPath := filepath.Join(out, "edges.bin")
	orig, err := os.ReadFile(edgesPath)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation: rejected at OpenDataset with the typed sentinel.
	if err := os.WriteFile(edgesPath, orig[:len(orig)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(out); !errors.Is(err, storage.ErrCorruptDataset) {
		t.Fatalf("open of truncated dataset: got %v, want ErrCorruptDataset", err)
	}
	if _, err := dataset.Validate(out); !errors.Is(err, dataset.ErrCorrupt) {
		t.Fatalf("validate of truncated dataset: got %v, want ErrCorrupt", err)
	}

	// Bit flip mid-file: size-valid, so only the checksum pass catches
	// it — and it must name the damaged bucket.
	corrupted := append([]byte(nil), orig...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if err := os.WriteFile(edgesPath, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(out); err != nil {
		t.Fatalf("open only checks sizes, got %v", err)
	}
	_, err = dataset.Validate(out)
	var ce *storage.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("validate of corrupt bucket: got %v, want *storage.CorruptError", err)
	}
	if ce.Bucket[0] < 0 {
		t.Fatalf("corrupt error does not name a bucket: %v", ce)
	}
	if !errors.Is(err, storage.ErrCorruptDataset) {
		t.Fatalf("corrupt error does not unwrap to the sentinel: %v", err)
	}

	// Restore the payload, damage an aux shard instead.
	if err := os.WriteFile(edgesPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	dictPath := filepath.Join(out, "dict.tsv")
	dict, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	dict[0] ^= 0xFF
	if err := os.WriteFile(dictPath, dict, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Validate(out); !errors.As(err, &ce) || ce.Path != "dict.tsv" {
		t.Fatalf("validate of corrupt dict: got %v, want CorruptError on dict.tsv", err)
	}

	// A manifest from the future is refused with the version sentinel.
	if err := os.WriteFile(dictPath, dict[:0], 0o644); err != nil { // leave dict corrupt; version wins first
		t.Fatal(err)
	}
	man, err := storage.ReadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	man.Version = storage.DatasetVersionRelations + 1
	if err := storage.WriteManifest(out, man); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(out); !errors.Is(err, storage.ErrDatasetVersion) {
		t.Fatalf("open of future version: got %v, want ErrDatasetVersion", err)
	}
}

// TestIngestInputErrors covers the typed bad-input contract.
func TestIngestInputErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	edges := write("edges.tsv", "a b\nb c\n")
	nodes := write("nodes.tsv", "a\nb\n") // missing c

	_, err := dataset.Ingest(dataset.Config{
		Out: t.TempDir(), Edges: edges, Nodes: nodes, Task: "lp", Partitions: 2,
	})
	if !errors.Is(err, dataset.ErrUnknownNode) {
		t.Fatalf("edge with unknown node: got %v, want ErrUnknownNode", err)
	}

	bad := write("bad.tsv", "a b c d e\n")
	_, err = dataset.Ingest(dataset.Config{Out: t.TempDir(), Edges: bad, Task: "lp", Partitions: 2})
	if !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("5-field edge line: got %v, want ErrBadInput", err)
	}

	// First-seen dictionary (no nodes file) admits everything.
	out := t.TempDir()
	st, err := dataset.Ingest(dataset.Config{Out: out, Edges: edges, Task: "lp", Partitions: 2})
	if err != nil {
		t.Fatalf("first-seen ingest: %v", err)
	}
	if st.NumNodes != 3 || st.NumEdges != 2 {
		t.Fatalf("first-seen ingest saw %d nodes / %d edges, want 3 / 2", st.NumNodes, st.NumEdges)
	}
	if _, err := dataset.Validate(out); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// NC without a train split is rejected.
	_, err = dataset.Ingest(dataset.Config{Out: t.TempDir(), Edges: edges, Task: "nc", Partitions: 2})
	if !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("nc without train nodes: got %v, want ErrBadInput", err)
	}

	// NC with an unlabeled train node is rejected: a -1 label would
	// reach the classification loss as a bogus class index.
	labeled := write("labeled.tsv", "a\t1\nb\nc\t0\n")
	trainB := write("train_b.tsv", "b\n")
	_, err = dataset.Ingest(dataset.Config{
		Out: t.TempDir(), Edges: edges, Nodes: labeled, TrainNodes: trainB,
		Task: "nc", Partitions: 2,
	})
	if !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("nc with unlabeled train node: got %v, want ErrBadInput", err)
	}

	// An explicit feature dim demands an exact file size.
	feats := write("feats.bin", "12345678") // 2 float32s for 3 nodes
	trainA := write("train_a.tsv", "a\n")
	_, err = dataset.Ingest(dataset.Config{
		Out: t.TempDir(), Edges: edges, Nodes: labeled, TrainNodes: trainA,
		Features: feats, FeatureDim: 3, Task: "nc", Partitions: 2,
	})
	if !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("wrong-sized feature file with explicit dim: got %v, want ErrBadInput", err)
	}
}

// TestRelationVersioning pins the layout-version contract for typed
// edges: a multi-relation ingest declares DatasetVersionRelations, a
// single-relation ingest keeps the original version (so its UUID, which
// hashes the version, is stable across builds), and a multi-relation
// manifest claiming a pre-relation version is rejected with the typed
// version sentinel — relation-blind readers must fail, not silently
// collapse every edge onto relation 0.
func TestRelationVersioning(t *testing.T) {
	exp, err := dataset.Export(gen.KG(smallKG()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	multi := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(multi, "lp", 1, 2)); err != nil {
		t.Fatal(err)
	}
	man, err := storage.ReadManifest(multi)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumRels != 9 {
		t.Fatalf("ingest inferred %d relation types, want 9", man.NumRels)
	}
	if man.Version != storage.DatasetVersionRelations {
		t.Fatalf("multi-relation manifest version = %d, want %d", man.Version, storage.DatasetVersionRelations)
	}

	kg := smallKG()
	kg.NumRelations = 1
	exp1, err := dataset.Export(gen.KG(kg), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	single := t.TempDir()
	if _, err := dataset.Ingest(exp1.Config(single, "lp", 1, 2)); err != nil {
		t.Fatal(err)
	}
	man1, err := storage.ReadManifest(single)
	if err != nil {
		t.Fatal(err)
	}
	if man1.NumRels != 1 || man1.Version != storage.DatasetVersionPlain {
		t.Fatalf("single-relation manifest: version %d with %d relations, want version %d with 1",
			man1.Version, man1.NumRels, storage.DatasetVersionPlain)
	}

	// A relation out of the declared range is a typed ingest error.
	capped := exp.Config(t.TempDir(), "lp", 1, 2)
	capped.NumRels = 2
	if _, err := dataset.Ingest(capped); !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("relation beyond -num-rels: got %v, want ErrBadInput", err)
	}

	// Downgrading the multi-relation manifest to a pre-relation version
	// must fail typed at read time.
	man.Version = storage.DatasetVersionPlain
	if err := storage.WriteManifest(multi, man); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.ReadManifest(multi); !errors.Is(err, storage.ErrDatasetVersion) {
		t.Fatalf("multi-relation manifest at version 1: got %v, want ErrDatasetVersion", err)
	}
}
