package dataset_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/marius"
)

// ingestQuant exports the NC fixture once and ingests it with the given
// feature encoding ("" = float32), returning the prepared directory.
func ingestQuant(t *testing.T, quantize string) string {
	t.Helper()
	exp, err := dataset.Export(gen.SBM(smallSBM()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	out := t.TempDir()
	cfg := exp.Config(out, "nc", 7, 4)
	cfg.Quantize = quantize
	if _, err := dataset.Ingest(cfg); err != nil {
		t.Fatalf("ingest(%q): %v", quantize, err)
	}
	return out
}

// TestQuantRoundTrip is the storage-fidelity contract for quantized
// ingest: the bytes on disk must be exactly what tensor.Quantize produces
// from the float32 table, and every read path — the in-memory store, kept
// compressed, and the partition-paged disk store — must dequantize to the
// same float32 values bit-for-bit (quantization rounds once at ingest;
// reads never re-round).
func TestQuantRoundTrip(t *testing.T) {
	f32DS, err := storage.OpenDataset(ingestQuant(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	f32Store, err := f32DS.MemoryNodeStore()
	if err != nil {
		t.Fatal(err)
	}
	ref := f32Store.Table()

	for _, mode := range []string{"fp16", "int8"} {
		t.Run(mode, func(t *testing.T) {
			kind, err := tensor.ParseQuant(mode)
			if err != nil {
				t.Fatal(err)
			}
			dir := ingestQuant(t, mode)
			if _, err := dataset.Validate(dir); err != nil {
				t.Fatalf("validate: %v", err)
			}
			ds, err := storage.OpenDataset(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Man.Version != storage.DatasetVersion {
				t.Errorf("quantized manifest version = %d, want %d", ds.Man.Version, storage.DatasetVersion)
			}
			if ds.Man.QuantKind() != kind {
				t.Errorf("manifest quant = %q, want %q", ds.Man.Quant, mode)
			}

			// On-disk bytes are exactly the in-memory quantizer's output.
			want := tensor.Quantize(ref, kind)
			raw, err := os.ReadFile(filepath.Join(dir, ds.Man.Features.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want.Raw) {
				t.Fatal("quantized feature bytes differ from tensor.Quantize of the float32 table")
			}
			if kind == tensor.QuantI8 {
				sc, err := os.ReadFile(filepath.Join(dir, ds.Man.QuantScales.Name))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Scale {
					scale := math.Float32frombits(binary.LittleEndian.Uint32(sc[8*i:]))
					zero := math.Float32frombits(binary.LittleEndian.Uint32(sc[8*i+4:]))
					if scale != want.Scale[i] || zero != want.Zero[i] {
						t.Fatalf("row %d sidecar (scale,zero) = (%v,%v), want (%v,%v)",
							i, scale, zero, want.Scale[i], want.Zero[i])
					}
				}
			}

			// The in-memory store keeps the table compressed and gathers
			// every row to the reference dequantization exactly.
			wantF32 := tensor.RefDequant(want)
			mem, err := ds.MemoryNodeStore()
			if err != nil {
				t.Fatal(err)
			}
			if mem.Table() != nil {
				t.Fatal("in-memory store widened the quantized table to float32")
			}
			ids := make([]int32, ds.Man.NumNodes)
			for i := range ids {
				ids[i] = int32(i)
			}
			got := tensor.New(len(ids), ds.Man.FeatureDim)
			if err := mem.Gather(ids, got); err != nil {
				t.Fatal(err)
			}
			for i := range wantF32.Data {
				if got.Data[i] != wantF32.Data[i] {
					t.Fatalf("in-memory Gather[%d] = %v, want %v", i, got.Data[i], wantF32.Data[i])
				}
			}

			// The partition-paged disk store dequantizes on load to the
			// same values.
			ns, err := ds.NodeStore(2, nil)
			if err != nil {
				t.Fatalf("NodeStore: %v", err)
			}
			defer ns.Close()
			all, err := ns.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			for i := range wantF32.Data {
				if all.Data[i] != wantF32.Data[i] {
					t.Fatalf("disk store ReadAll[%d] = %v, want %v", i, all.Data[i], wantF32.Data[i])
				}
			}

			// Gather through loaded partitions matches RefGatherDequant.
			if err := ns.LoadSet([]int{0, 1}); err != nil {
				t.Fatalf("LoadSet: %v", err)
			}
			pt := ds.Partitioning()
			lo0, _ := pt.Range(0)
			lo1, hi1 := pt.Range(1)
			sel := []int32{lo0, lo1, hi1 - 1, lo0 + 1}
			out := tensor.New(len(sel), ds.Man.FeatureDim)
			if err := ns.Gather(sel, out); err != nil {
				t.Fatalf("Gather: %v", err)
			}
			wantG := tensor.RefGatherDequant(want, sel)
			for i := range wantG.Data {
				if out.Data[i] != wantG.Data[i] {
					t.Fatalf("Gather[%d] = %v, want RefGatherDequant %v", i, out.Data[i], wantG.Data[i])
				}
			}

			// The quantized store is read-only.
			if err := ns.Restore(wantF32, nil); err == nil {
				t.Fatal("Restore into a quantized store succeeded, want error")
			}
		})
	}
}

// TestQuantIngestDeterministic re-ingests the same export with the same
// encoding and demands identical manifests (UUID, CRCs): quantization is
// part of the dataset's identity, not a per-run transformation.
func TestQuantIngestDeterministic(t *testing.T) {
	a := ingestQuant(t, "fp16")
	b := ingestQuant(t, "fp16")
	ma, err := storage.ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := storage.ReadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.UUID != mb.UUID {
		t.Errorf("UUIDs differ across identical ingests: %s vs %s", ma.UUID, mb.UUID)
	}
	if ma.Features.CRC32 != mb.Features.CRC32 {
		t.Errorf("feature CRCs differ across identical ingests")
	}
	fa, _ := os.ReadFile(filepath.Join(a, ma.Features.Name))
	fb, _ := os.ReadFile(filepath.Join(b, mb.Features.Name))
	if !bytes.Equal(fa, fb) {
		t.Error("quantized feature bytes differ across identical ingests")
	}

	// A quantized dataset must not collide with the float32 dataset's
	// identity: the UUID folds in the encoding.
	f32, err := storage.ReadManifest(ingestQuant(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if f32.UUID == ma.UUID {
		t.Error("fp16 and float32 datasets share a UUID")
	}
	if f32.Version != storage.DatasetVersionPlain {
		t.Errorf("unquantized manifest version = %d, want %d (plain datasets stay readable by old builds)",
			f32.Version, storage.DatasetVersionPlain)
	}
}

// TestQuantTrainDeterministic trains from a quantized dataset at two
// worker counts and demands byte-identical trajectories — dequantization
// is a per-element function of the stored bytes, so parallelism cannot
// reorder any floating-point reduction — and that the loss lands near the float32
// run (storage rounding perturbs inputs, not the learning dynamics). The
// checkpoint must serve the bytes the dequantized float32 table encodes
// to, and a disk epoch must page well under float32's feature bytes.
func TestQuantTrainDeterministic(t *testing.T) {
	const seed, epochs = int64(7), 2
	dir := ingestQuant(t, "fp16")
	opts := func(workers int) []marius.Option {
		return []marius.Option{
			marius.WithSeed(seed), marius.WithPartitions(4),
			marius.WithDim(8), marius.WithFanouts(4, 4),
			marius.WithBatchSize(128), marius.WithWorkers(workers),
		}
	}
	s1, err := marius.FromDataset(dir, opts(1)...)
	if err != nil {
		t.Fatalf("workers=1 session: %v", err)
	}
	defer s1.Close()
	s4, err := marius.FromDataset(dir, opts(4)...)
	if err != nil {
		t.Fatalf("workers=4 session: %v", err)
	}
	defer s4.Close()
	l1 := trainLosses(t, s1, epochs)
	l4 := trainLosses(t, s4, epochs)
	for i := range l1 {
		if l1[i] != l4[i] {
			t.Fatalf("epoch %d loss diverged across worker counts: %v vs %v", i, l1[i], l4[i])
		}
	}
	if !bytes.Equal(checkpointBytes(t, s1), checkpointBytes(t, s4)) {
		t.Fatal("checkpoints differ across worker counts on a quantized dataset")
	}

	// Float32 baseline at the same seed: fp16 storage rounding should
	// move a converging loss by fractions of a percent, not wreck it.
	f32Dir := ingestQuant(t, "")
	f32, err := marius.FromDataset(f32Dir, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f32.Close()
	lf := trainLosses(t, f32, epochs)
	last, ref := l1[len(l1)-1], lf[len(lf)-1]
	if diff := last - ref; diff < -0.05*ref || diff > 0.05*ref {
		t.Errorf("fp16 final loss %v strays more than 5%% from float32 %v", last, ref)
	}

	// Served, the fp16 features equal the dequantized float32 table: the
	// served logits are the evaluation forward's over
	// RefDequant(Quantize(float32 features)), bit for bit, whatever
	// ServeConfig.InMemory says.
	ckptPath := filepath.Join(t.TempDir(), "fp16.ckpt")
	if err := s1.Save(ckptPath); err != nil {
		t.Fatal(err)
	}
	const reqSeed = 9
	nodes := make([]int32, 16) // distinct: the reference encodes them as given
	for i := range nodes {
		nodes[i] = int32(i * 37)
	}
	f32DS, err := storage.OpenDataset(f32Dir)
	if err != nil {
		t.Fatal(err)
	}
	f32Store, err := f32DS.MemoryNodeStore()
	if err != nil {
		t.Fatal(err)
	}
	refStore := storage.NewMemoryNodeStore(tensor.RefDequant(tensor.Quantize(f32Store.Table(), tensor.QuantF16)), false)
	sctx, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()
	snap, err := serve.Load(sctx, ckptPath, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fwd := encode.New(encode.Config{
		Encoder: snap.Encoder, Params: snap.Params,
		Fanouts: snap.Meta.Fanouts[:snap.Meta.Layers], Dirs: graph.Both, Workers: 1,
	}, sctx.Adj, reqSeed)
	want, err := fwd.Encode(refStore, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, inMemory := range []bool{false, true} {
		srv, err := marius.LoadForInference(dir, ckptPath, marius.ServeConfig{InMemory: inMemory, Workers: 2})
		if err != nil {
			t.Fatalf("serve (InMemory %v): %v", inMemory, err)
		}
		resp, err := srv.Predict(context.Background(), &marius.PredictRequest{Nodes: nodes, Seed: reqSeed})
		srv.Close()
		if err != nil {
			t.Fatalf("predict (InMemory %v): %v", inMemory, err)
		}
		for i := range nodes {
			for j, w := range want.Value.Row(i) {
				if math.Float32bits(resp.Logits[i][j]) != math.Float32bits(w) {
					t.Fatalf("InMemory %v, node %d logit %d: served %v, dequantized float32 reference %v",
						inMemory, nodes[i], j, resp.Logits[i][j], w)
				}
			}
		}
	}

	// A disk epoch pages the fp16 features at half float32's row size.
	// The node store's byte counters are deterministic at depth 0.
	readBytes := func(dir string) int64 {
		sess, err := marius.FromDataset(dir, marius.WithSeed(seed), marius.WithDim(8), marius.WithFanouts(4, 4),
			marius.WithBatchSize(128), marius.WithWorkers(1),
			marius.WithDisk(t.TempDir(), marius.Capacity(2)), marius.WithPipeline(0))
		if err != nil {
			t.Fatalf("disk session: %v", err)
		}
		defer sess.Close()
		st, err := sess.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.IO.BytesRead
	}
	f16Read, f32Read := readBytes(dir), readBytes(f32Dir)
	t.Logf("disk epoch node-store reads: fp16 %d B, float32 %d B", f16Read, f32Read)
	if f32Read == 0 || float64(f16Read) >= 0.7*float64(f32Read) {
		t.Errorf("fp16 disk epoch read %d node-store bytes, float32 %d: want < 0.7x", f16Read, f32Read)
	}
}

// TestQuantMemoryMatchesDisk holds the in-memory store, which keeps a
// quantized table compressed and dequantizes the rows each batch
// gathers, to the disk store at c = p, which dequantizes whole
// partitions into float32 frames: for fp16 and int8, equal losses,
// checkpoint bytes and evaluation, which on disk reads the table as
// stored, compressed. Both train one visit over all four partitions, so
// only the node store differs.
func TestQuantMemoryMatchesDisk(t *testing.T) {
	const epochs = 2
	for _, mode := range []string{"fp16", "int8"} {
		t.Run(mode, func(t *testing.T) {
			dir := ingestQuant(t, mode)
			kind, err := tensor.ParseQuant(mode)
			if err != nil {
				t.Fatal(err)
			}
			opts := []marius.Option{
				marius.WithSeed(7), marius.WithDim(8), marius.WithFanouts(4, 4),
				marius.WithBatchSize(128), marius.WithWorkers(2),
			}
			mem, err := marius.FromDataset(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			if ms, ok := mem.Task().Source().Nodes.(*storage.MemoryNodeStore); !ok || ms.Table() != nil {
				t.Fatalf("in-memory session holds %T, not the quantized table kept compressed", mem.Task().Source().Nodes)
			}
			disk, err := marius.FromDataset(dir, append(opts, marius.WithDisk(t.TempDir(), marius.Capacity(4)),
				marius.WithPolicyImpl(policy.InMemory{P: 4}))...)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			lm, ld := trainLosses(t, mem, epochs), trainLosses(t, disk, epochs)
			for i := range lm {
				if lm[i] != ld[i] {
					t.Fatalf("epoch %d loss: in memory %v, on disk %v", i, lm[i], ld[i])
				}
			}
			if !bytes.Equal(checkpointBytes(t, mem), checkpointBytes(t, disk)) {
				t.Fatal("in-memory checkpoint differs from the disk session's")
			}

			// Evaluation reads a view of the disk table that stays
			// quantized: it evaluates bit-identically to the in-memory
			// session, and only the compressed table crosses the disk.
			sameEval(t, mem, disk)
			src := disk.Task().Source()
			before := src.Disk.Stats().Snapshot()
			view, err := src.Table()
			if err != nil {
				t.Fatal(err)
			}
			read := src.Disk.Stats().Snapshot().Sub(before).BytesRead
			compressed := int64(src.NumNodes) * int64(src.Nodes.Dim()) * int64(kind.ElemBytes())
			if view.Table() != nil || read != compressed {
				t.Fatalf("evaluation view holds a float32 table %v, read %d bytes, want the %d compressed bytes kept as stored",
					view.Table() != nil, read, compressed)
			}
		})
	}
}

// TestQuantCorruption covers the typed corruption and versioning
// contract for quantized shards: truncation is caught at open, a damaged
// sidecar is caught by validate as a *storage.CorruptError naming
// features.scale.bin, and a version-1 manifest claiming quantization is
// refused.
func TestQuantCorruption(t *testing.T) {
	dir := ingestQuant(t, "int8")
	man, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	featPath := filepath.Join(dir, man.Features.Name)
	scalePath := filepath.Join(dir, man.QuantScales.Name)

	// Truncated quantized payload: the exact-size check at open fires.
	feat, err := os.ReadFile(featPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(featPath, feat[:len(feat)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(dir); !errors.Is(err, storage.ErrCorruptDataset) {
		t.Fatalf("open of truncated quantized features: got %v, want ErrCorruptDataset", err)
	}
	if err := os.WriteFile(featPath, feat, 0o644); err != nil {
		t.Fatal(err)
	}

	// Bit flip in the int8 scale sidecar: size-valid, so the checksum
	// pass catches it and must name the file.
	scales, err := os.ReadFile(scalePath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), scales...)
	bad[len(bad)/2] ^= 0xFF
	if err := os.WriteFile(scalePath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *storage.CorruptError
	if _, err := dataset.Validate(dir); !errors.As(err, &ce) || ce.Path != man.QuantScales.Name {
		t.Fatalf("validate of corrupt scale sidecar: got %v, want CorruptError on %s", err, man.QuantScales.Name)
	}
	if err := os.WriteFile(scalePath, scales, 0o644); err != nil {
		t.Fatal(err)
	}

	// A version-1 manifest cannot claim quantization: version 1 is the
	// pre-quantization format old readers interpret as float32.
	man.Version = storage.DatasetVersionPlain
	if err := storage.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(dir); !errors.Is(err, storage.ErrDatasetVersion) {
		t.Fatalf("open of v1 manifest with quant: got %v, want ErrDatasetVersion", err)
	}

	// Quantization without features is rejected at ingest: link
	// prediction's learnable embeddings stay float32.
	exp, err := dataset.Export(gen.KG(smallKG()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.Config(t.TempDir(), "lp", 3, 4)
	cfg.Quantize = "fp16"
	if _, err := dataset.Ingest(cfg); !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("quantized LP ingest: got %v, want ErrBadInput", err)
	}

	// An unknown encoding is rejected up front.
	cfg2 := exp.Config(t.TempDir(), "lp", 3, 4)
	cfg2.Quantize = "fp8"
	if _, err := dataset.Ingest(cfg2); !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("unknown quantize mode: got %v, want ErrBadInput", err)
	}
}
