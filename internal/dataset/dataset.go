// Package dataset is the streaming ingestion subsystem behind
// cmd/mariusprep: it converts raw edge lists (TSV/CSV text or packed
// binary triples, with optional node/feature/label/split files) into the
// versioned on-disk dataset layout that storage.OpenDataset,
// marius.FromDataset and cmd/mariusgnn -data consume directly (paper
// §4–5: preprocessing partitions the graph into p² edge buckets on disk
// before out-of-core training).
//
// Ingestion is memory-bounded: the edge list is never materialized.
// Edges stream through an external counting/bucket sort — buffered up to
// a configurable cap, stable-sorted by (source partition, destination
// partition) bucket, spilled as runs, and merged run-major so every
// bucket's edges keep their global input order. The node dictionary,
// relabeling and split lists are O(nodes), outside the edge cap.
//
// The ingest step applies the exact seeded relabeling marius.New applies
// to an in-memory graph (partition.RandomOrder for link prediction,
// partition.TrainFirstOrder for node classification), so training from a
// prepared directory is byte-identical — same losses, same checkpoints —
// to training the equivalent in-memory graph at the same seed.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// DefaultMemLimit is the default external-sort working-set cap (bytes).
const DefaultMemLimit = 256 << 20

// Config configures one Ingest run.
type Config struct {
	// Out is the dataset directory to create (the prep target).
	Out string
	// Edges is the raw training edge list: .csv (comma), .bin (packed
	// little-endian int32 triples), anything else whitespace-separated
	// text with 2 (src dst) or 3 (src rel dst) columns.
	Edges string
	// ValidEdges/TestEdges are optional held-out edge lists (link
	// prediction), same formats.
	ValidEdges, TestEdges string
	// Nodes is an optional node dictionary file: one raw node ID per
	// line (optionally "id label"), defining internal ID order. Without
	// it the dictionary is built first-seen over the edge and split
	// files.
	Nodes string
	// Features is an optional float32 binary feature table, row-major in
	// nodes-file order.
	Features string
	// TrainNodes/ValidNodes/TestNodes are optional split files (one raw
	// node ID per line, order preserved). Node classification requires
	// TrainNodes.
	TrainNodes, ValidNodes, TestNodes string

	// Task is "nc" or "lp": it selects the partition relabeling (and
	// what marius.FromDataset will train).
	Task string
	// Seed drives the relabeling; train with the same seed for
	// byte-identical parity with the in-memory path.
	Seed int64
	// Partitions is the physical partition count p baked into the
	// layout.
	Partitions int
	// NumRels overrides the relation count (0 infers max(rel)+1).
	NumRels int
	// NumClasses overrides the class count (0 infers max(label)+1).
	NumClasses int
	// FeatureDim declares the feature dimensionality; the feature file
	// must then be exactly nodes x FeatureDim float32s. 0 infers the
	// dim from the file size (which cannot catch a wrong-sized file
	// whose size happens to divide evenly).
	FeatureDim int

	// Quantize selects the feature-table storage encoding: "" (float32),
	// "fp16", or "int8" (per-row affine with a (scale, zero) sidecar).
	// Quantization happens here, exactly once — readers dequantize the
	// same stored bytes forever after, so a quantized dataset trains and
	// serves bit-identically at any worker count (it just differs from
	// its float32 sibling by the rounding applied at this step).
	Quantize string

	// MemLimit caps the external sort's edge working set in bytes
	// (buffered edges plus their encoded run image, 24 B/edge); 0 means
	// DefaultMemLimit. Small caps force multi-run spills.
	MemLimit int64
	// TmpDir holds spill files ("" = Out).
	TmpDir string

	// Force overwrites a partial output left by an interrupted prep
	// (payload files present without a manifest), sweeping the partial
	// payload and leftover temps first. Without it such a directory is a
	// typed ErrPartialOutput.
	Force bool

	// FS, when non-nil, routes every output write (payload files, the
	// manifest) through a fault-injection filesystem — the chaos seam
	// for crash-mid-ingest tests. Nil means the real filesystem.
	FS fault.FS

	// Progress, when non-nil, receives coarse stage updates:
	// stage name, units done, units total (total < 0 when unknown).
	Progress func(stage string, done, total int64)
}

// Stats reports one completed Ingest.
type Stats struct {
	NumNodes   int
	NumEdges   int64
	NumRels    int
	NumClasses int

	// SpillRuns is how many sorted runs the external sort wrote;
	// MaxBufferedBytes is its peak working set (always <= the cap);
	// BytesSpilled is the total run bytes written to the temp file.
	SpillRuns        int
	MaxBufferedBytes int64
	BytesSpilled     int64

	Duration time.Duration
}

func (c *Config) progress(stage string, done, total int64) {
	if c.Progress != nil {
		c.Progress(stage, done, total)
	}
}

// Ingest runs the full preprocessing pipeline and writes a dataset
// directory: dictionary, relabeling, external bucket sort of the edge
// stream, feature/label/split shards, and the checksummed manifest.
func Ingest(cfg Config) (*Stats, error) {
	start := time.Now()
	if cfg.Task != "nc" && cfg.Task != "lp" {
		return nil, fmt.Errorf("dataset: %w: task %q (want nc or lp)", ErrBadInput, cfg.Task)
	}
	if cfg.Out == "" || cfg.Edges == "" {
		return nil, fmt.Errorf("dataset: %w: output directory and edge list are required", ErrBadInput)
	}
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("dataset: %w: partitions must be positive", ErrBadInput)
	}
	quant, err := tensor.ParseQuant(cfg.Quantize)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w: %v", ErrBadInput, err)
	}
	if quant != tensor.QuantNone && cfg.Features == "" {
		return nil, fmt.Errorf("dataset: %w: -quantize=%s needs a feature table (learnable LP embeddings stay float32)",
			ErrBadInput, cfg.Quantize)
	}
	if cfg.MemLimit <= 0 {
		cfg.MemLimit = DefaultMemLimit
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	fsys := fault.Or(cfg.FS)
	// A directory holding payload files without a manifest is the
	// signature of a prep that died midway (the manifest is written
	// last). Refuse to silently mix old partial files with new output;
	// Force sweeps the wreckage and starts clean.
	if partial, present := partialOutput(cfg.Out); partial {
		if !cfg.Force {
			return nil, fmt.Errorf("dataset: %w: %s holds %d payload file(s) (e.g. %s) but no manifest; re-run with -force to sweep and re-ingest",
				ErrPartialOutput, cfg.Out, len(present), present[0])
		}
		if _, err := sweepPartial(cfg.Out); err != nil {
			return nil, err
		}
		if cfg.TmpDir != "" && cfg.TmpDir != cfg.Out {
			if _, err := SweepTemps(cfg.TmpDir); err != nil {
				return nil, err
			}
		}
	}
	// Invalidate any previous dataset in the target directory up front:
	// the manifest is written last, so a prep that dies midway must not
	// leave a stale manifest describing a mix of old and new payload
	// files (sizes can coincide, so OpenDataset's size check alone would
	// not catch it).
	if err := os.Remove(filepath.Join(cfg.Out, storage.ManifestName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	tmp := cfg.TmpDir
	if tmp == "" {
		tmp = cfg.Out
	}

	// Stage 1: node dictionary (and labels, when the nodes file carries
	// them). With an explicit nodes file the dictionary is sealed:
	// unknown IDs anywhere else are errors. Without one, internal IDs
	// are assigned first-seen across splits, then edge files.
	d := newDict()
	sealed := cfg.Nodes != ""
	var labels []int32
	if sealed {
		cfg.progress("dictionary", 0, -1)
		if labels, err = readNodesFile(cfg.Nodes, d); err != nil {
			return nil, err
		}
	}
	trainD, err := readNodeList(cfg.TrainNodes, d, sealed)
	if err != nil {
		return nil, err
	}
	validD, err := readNodeList(cfg.ValidNodes, d, sealed)
	if err != nil {
		return nil, err
	}
	testD, err := readNodeList(cfg.TestNodes, d, sealed)
	if err != nil {
		return nil, err
	}
	if !sealed {
		cfg.progress("dictionary", 0, -1)
		addEndpoints := func(path string) error {
			if path == "" {
				return nil
			}
			return scanEdges(path, func(src, dst []byte, rel int32) error {
				d.add(src)
				d.add(dst)
				return nil
			})
		}
		for _, p := range []string{cfg.Edges, cfg.ValidEdges, cfg.TestEdges} {
			if err := addEndpoints(p); err != nil {
				return nil, err
			}
		}
	}
	n := d.len()
	if n == 0 {
		return nil, fmt.Errorf("dataset: %w: no nodes in input", ErrBadInput)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dataset: %w: %d nodes exceed the int32 ID space", ErrBadInput, n)
	}
	if cfg.Task == "nc" {
		if len(trainD) == 0 {
			return nil, fmt.Errorf("dataset: %w: node classification requires a train-nodes file", ErrBadInput)
		}
		// Every training node must carry a label: an unlabeled (-1)
		// train node would reach the classification loss as a bogus
		// class index mid-epoch.
		if labels == nil {
			return nil, fmt.Errorf("dataset: %w: node classification requires labels in the nodes file", ErrBadInput)
		}
		for _, id := range trainD {
			if labels[id] < 0 {
				return nil, fmt.Errorf("dataset: %w: train node %q has no label", ErrBadInput, d.raw[id])
			}
		}
	}

	// Stage 2: the seeded partition relabeling — the same call the
	// in-memory path (marius.New's session source) applies, so final node
	// IDs match it exactly. final[dictID] is the on-disk node ID.
	var final []int32
	if cfg.Task == "nc" {
		final = partition.TrainFirstOrder(n, trainD, cfg.Seed)
	} else {
		final = partition.RandomOrder(n, cfg.Seed)
	}
	pt := partition.New(n, cfg.Partitions)

	// Stage 3: stream the training edges through the external bucket
	// sort under the memory cap.
	maxEdges := int(cfg.MemLimit / edgeMemBytes)
	srt, err := newExtSorter(pt, maxEdges, tmp)
	if err != nil {
		return nil, err
	}
	defer srt.close()
	maxRel := int32(-1)
	var numEdges int64
	mapEdge := func(path string, src, dst []byte, rel int32) (graph.Edge, error) {
		s, ok := d.lookup(src)
		if !ok {
			return graph.Edge{}, fmt.Errorf("dataset: %w: %s: node %q not in the nodes file", ErrUnknownNode, path, src)
		}
		t, ok := d.lookup(dst)
		if !ok {
			return graph.Edge{}, fmt.Errorf("dataset: %w: %s: node %q not in the nodes file", ErrUnknownNode, path, dst)
		}
		if cfg.NumRels > 0 && int(rel) >= cfg.NumRels {
			return graph.Edge{}, fmt.Errorf("dataset: %w: %s: relation %d out of range [0,%d)", ErrBadInput, path, rel, cfg.NumRels)
		}
		if rel > maxRel {
			maxRel = rel
		}
		return graph.Edge{Src: final[s], Rel: rel, Dst: final[t]}, nil
	}
	cfg.progress("sort", 0, -1)
	err = scanEdges(cfg.Edges, func(src, dst []byte, rel int32) error {
		e, err := mapEdge(cfg.Edges, src, dst, rel)
		if err != nil {
			return err
		}
		numEdges++
		if numEdges%(1<<22) == 0 {
			cfg.progress("sort", numEdges, -1)
		}
		return srt.add(e)
	})
	if err != nil {
		return nil, err
	}
	cfg.progress("merge", 0, numEdges)
	counts, crcs, err := srt.merge(fsys, filepath.Join(cfg.Out, "edges.bin"))
	if err != nil {
		return nil, err
	}
	st := &Stats{
		NumNodes:         n,
		NumEdges:         numEdges,
		SpillRuns:        len(srt.runs),
		MaxBufferedBytes: int64(srt.peakEdges) * edgeMemBytes,
		BytesSpilled:     srt.spilled,
	}
	srt.close()

	// Unquantized datasets keep the original layout version (their UUIDs
	// hash it, and nothing in the layout changed for them); quantized
	// features need the bumped version so old readers fail typed.
	version := storage.DatasetVersionPlain
	if quant != tensor.QuantNone {
		version = storage.DatasetVersion
	}
	man := &storage.Manifest{
		Version:      version,
		Quant:        cfg.Quantize,
		Task:         cfg.Task,
		Seed:         cfg.Seed,
		Partitions:   cfg.Partitions,
		NumNodes:     n,
		NumEdges:     numEdges,
		BucketCounts: counts,
		BucketCRCs:   crcs,
		Edges:        storage.DatasetFile{Name: "edges.bin", Bytes: numEdges * edgeBytes},
		SpillRuns:    st.SpillRuns,
		MemLimit:     cfg.MemLimit,
	}

	// Stage 4: held-out edge shards (order preserved, remapped).
	writeHeldOut := func(path, name string) (*storage.DatasetFile, error) {
		if path == "" {
			return nil, nil
		}
		w, err := newCRCFile(fsys, filepath.Join(cfg.Out, name))
		if err != nil {
			return nil, err
		}
		var rec [edgeBytes]byte
		err = scanEdges(path, func(src, dst []byte, rel int32) error {
			e, err := mapEdge(path, src, dst, rel)
			if err != nil {
				return err
			}
			encodeEdge(e, rec[:])
			return w.write(rec[:])
		})
		if err != nil {
			w.abort()
			return nil, err
		}
		return w.finish(name)
	}
	if man.ValidEdges, err = writeHeldOut(cfg.ValidEdges, "valid_edges.bin"); err != nil {
		return nil, err
	}
	if man.TestEdges, err = writeHeldOut(cfg.TestEdges, "test_edges.bin"); err != nil {
		return nil, err
	}
	man.NumRels = int(maxRel) + 1
	if cfg.NumRels > 0 {
		man.NumRels = cfg.NumRels
	}
	if man.NumRels < 1 {
		man.NumRels = 1
	}
	// A multi-relation edge set bumps the layout version so relation-blind
	// readers fail typed instead of silently collapsing every edge onto
	// relation 0. Single-relation datasets keep their old version (and
	// therefore their UUIDs).
	if man.NumRels > 1 {
		man.Version = storage.DatasetVersionRelations
	}

	// Stage 5: node-level shards — splits, labels, features, dictionary
	// — all keyed by final node ID.
	writeSplit := func(ids []int32, name string) (*storage.DatasetFile, error) {
		if len(ids) == 0 {
			return nil, nil
		}
		w, err := newCRCFile(fsys, filepath.Join(cfg.Out, name))
		if err != nil {
			return nil, err
		}
		var rec [4]byte
		for _, id := range ids {
			binary.LittleEndian.PutUint32(rec[:], uint32(final[id]))
			if err := w.write(rec[:]); err != nil {
				w.abort()
				return nil, err
			}
		}
		return w.finish(name)
	}
	if man.TrainNodes, err = writeSplit(trainD, "train_nodes.bin"); err != nil {
		return nil, err
	}
	if man.ValidNodes, err = writeSplit(validD, "valid_nodes.bin"); err != nil {
		return nil, err
	}
	if man.TestNodes, err = writeSplit(testD, "test_nodes.bin"); err != nil {
		return nil, err
	}
	if labels != nil {
		maxLab := int32(-1)
		out := make([]int32, n)
		for dictID, lab := range labels {
			out[final[dictID]] = lab
			if lab > maxLab {
				maxLab = lab
			}
			if cfg.NumClasses > 0 && int(lab) >= cfg.NumClasses {
				return nil, fmt.Errorf("dataset: %w: label %d out of range [0,%d)", ErrBadInput, lab, cfg.NumClasses)
			}
		}
		w, err := newCRCFile(fsys, filepath.Join(cfg.Out, "labels.bin"))
		if err != nil {
			return nil, err
		}
		var rec [4]byte
		for _, lab := range out {
			binary.LittleEndian.PutUint32(rec[:], uint32(lab))
			if err := w.write(rec[:]); err != nil {
				w.abort()
				return nil, err
			}
		}
		if man.Labels, err = w.finish("labels.bin"); err != nil {
			return nil, err
		}
		man.NumClasses = int(maxLab) + 1
		if cfg.NumClasses > 0 {
			man.NumClasses = cfg.NumClasses
		}
	}
	if cfg.Features != "" {
		if man.Features, man.QuantScales, man.FeatureDim, err = reorderFeatures(fsys, cfg.Features, cfg.Out, n, cfg.FeatureDim, final, quant); err != nil {
			return nil, err
		}
	}
	if man.Dict, err = writeDict(fsys, cfg.Out, d, final); err != nil {
		return nil, err
	}

	// Identity fingerprint last: every field it covers is final by now.
	// Checkpoints trained on this dataset embed it, letting serving warn
	// on checkpoint/dataset provenance mismatches.
	man.UUID = man.ComputeUUID()
	if err := storage.WriteManifestFS(cfg.FS, cfg.Out, man); err != nil {
		return nil, err
	}
	st.NumRels = man.NumRels
	st.NumClasses = man.NumClasses
	st.Duration = time.Since(start)
	cfg.progress("done", numEdges, numEdges)
	return st, nil
}

// crcFile writes a payload file while accumulating its size and IEEE
// CRC32 for the manifest: buffered writes tee into the hash. The file
// opens through the configured fault.FS, so crash injection can tear
// any payload write mid-ingest.
type crcFile struct {
	f fault.File
	h hash.Hash32
	w *bufio.Writer
	n int64
}

func newCRCFile(fsys fault.FS, path string) (*crcFile, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	h := crc32.NewIEEE()
	return &crcFile{f: f, h: h, w: bufio.NewWriterSize(io.MultiWriter(f, h), 1<<16)}, nil
}

func (c *crcFile) write(p []byte) error {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return err
}

func (c *crcFile) abort() {
	name := c.f.Name()
	c.f.Close()
	os.Remove(name)
}

// finish flushes, closes, and returns the manifest entry.
func (c *crcFile) finish(name string) (*storage.DatasetFile, error) {
	if err := c.w.Flush(); err != nil {
		c.abort()
		return nil, err
	}
	if err := c.f.Close(); err != nil {
		return nil, err
	}
	return &storage.DatasetFile{Name: name, Bytes: c.n, CRC32: c.h.Sum32()}, nil
}

// reorderFeatures rewrites the raw feature table (rows in dictionary
// order) into features.bin (rows in final node-ID order, the
// DiskNodeStore table layout), one row at a time, quantizing each row
// when a quantized encoding is selected (int8 additionally streams the
// per-row (scale, zero) pairs into the features.scale.bin sidecar, in
// the same final order). A final sequential pass computes the shard
// checksums. dim 0 infers the dimensionality from the file size; an
// explicit dim demands an exact size match.
func reorderFeatures(fsys fault.FS, src, outDir string, n, dim int, final []int32, quant tensor.QuantKind) (feat, scales *storage.DatasetFile, featDim int, err error) {
	in, err := os.Open(src)
	if err != nil {
		return nil, nil, 0, err
	}
	defer in.Close()
	info, err := in.Stat()
	if err != nil {
		return nil, nil, 0, err
	}
	if dim > 0 {
		if want := int64(n) * int64(dim) * 4; info.Size() != want {
			return nil, nil, 0, fmt.Errorf("dataset: %w: feature file %s is %d bytes, %d nodes x %d dims need %d",
				ErrBadInput, src, info.Size(), n, dim, want)
		}
	} else {
		if info.Size()%(int64(n)*4) != 0 || info.Size() == 0 {
			return nil, nil, 0, fmt.Errorf("dataset: %w: feature file %s is %d bytes, not a positive multiple of 4x%d nodes",
				ErrBadInput, src, info.Size(), n)
		}
		dim = int(info.Size() / (int64(n) * 4))
	}
	rowBytes := int64(dim) * 4
	// Iterate in output (final node-ID) order: source rows are read at
	// random offsets (page-cache friendly — the file is visited exactly
	// once), while the output streams sequentially through the buffered
	// CRC writer, so no second checksum pass is needed.
	dictOf := make([]int32, n)
	for dictID, f := range final {
		dictOf[f] = int32(dictID)
	}
	w, err := newCRCFile(fsys, filepath.Join(outDir, "features.bin"))
	if err != nil {
		return nil, nil, 0, err
	}
	var sw *crcFile
	if quant == tensor.QuantI8 {
		if sw, err = newCRCFile(fsys, filepath.Join(outDir, "features.scale.bin")); err != nil {
			w.abort()
			return nil, nil, 0, err
		}
	}
	abort := func() {
		w.abort()
		if sw != nil {
			sw.abort()
		}
	}
	row := make([]byte, rowBytes)
	var (
		vals []float32
		qrow *tensor.QTable
		pair [8]byte
	)
	if quant != tensor.QuantNone {
		vals = make([]float32, dim)
		qrow = tensor.NewQTable(quant, 1, dim)
	}
	for f := 0; f < n; f++ {
		if _, err := in.ReadAt(row, int64(dictOf[f])*rowBytes); err != nil {
			abort()
			return nil, nil, 0, fmt.Errorf("dataset: read feature row %d: %w", dictOf[f], err)
		}
		out := row
		if quant != tensor.QuantNone {
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(row[i*4:]))
			}
			qrow.QuantizeRow(0, vals)
			out = qrow.Raw
		}
		if err := w.write(out); err != nil {
			abort()
			return nil, nil, 0, err
		}
		if sw != nil {
			binary.LittleEndian.PutUint32(pair[:4], math.Float32bits(qrow.Scale[0]))
			binary.LittleEndian.PutUint32(pair[4:], math.Float32bits(qrow.Zero[0]))
			if err := sw.write(pair[:]); err != nil {
				abort()
				return nil, nil, 0, err
			}
		}
	}
	if feat, err = w.finish("features.bin"); err != nil {
		if sw != nil {
			sw.abort()
		}
		return nil, nil, 0, err
	}
	if sw != nil {
		if scales, err = sw.finish("features.scale.bin"); err != nil {
			return nil, nil, 0, err
		}
	}
	return feat, scales, dim, nil
}

// writeDict writes dict.tsv: line k is the raw source ID of final node
// ID k.
func writeDict(fsys fault.FS, outDir string, d *dict, final []int32) (*storage.DatasetFile, error) {
	rawOf := make([]string, d.len())
	for dictID, raw := range d.raw {
		rawOf[final[dictID]] = raw
	}
	w, err := newCRCFile(fsys, filepath.Join(outDir, "dict.tsv"))
	if err != nil {
		return nil, err
	}
	for _, raw := range rawOf {
		if err := w.write([]byte(raw)); err != nil {
			w.abort()
			return nil, err
		}
		if err := w.write([]byte{'\n'}); err != nil {
			w.abort()
			return nil, err
		}
	}
	return w.finish("dict.tsv")
}

// ErrCorrupt aliases storage.ErrCorruptDataset so callers can match
// dataset and storage corruption errors through one import.
var ErrCorrupt = storage.ErrCorruptDataset
