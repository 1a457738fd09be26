package storage_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// overflowManifest declares 2³² partitions over empty bucket tables: p²
// wraps to 0 in int arithmetic, so a length check that computes p*p
// accepts it and the first BucketLen(0, 1) indexes past the offsets.
const overflowManifest = `{"version":1,"task":"lp","seed":0,"partitions":4294967296,` +
	`"num_nodes":1,"num_rels":1,"num_edges":0,"bucket_counts":[],"bucket_crc32s":[],` +
	`"edges":{"name":"edges.bin","bytes":0,"crc32":0}}`

// FuzzReadManifest feeds untrusted bytes to OpenDataset as manifest.json
// beside an empty edges.bin. It must either refuse them with
// ErrCorruptDataset or ErrDatasetVersion, or return a dataset whose edge
// store answers BucketLen for every bucket without panicking. The seeds
// are the overflowing manifest, a valid manifest from a tiny ingest
// (refused here: its payload files are absent), and that manifest cut
// down to no edges and no payload files, which opens.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(overflowManifest))
	valid, err := os.ReadFile(filepath.Join(prepNC(f, 2), storage.ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	var m storage.Manifest
	if err := json.Unmarshal(valid, &m); err != nil {
		f.Fatal(err)
	}
	m.NumEdges, m.Edges.Bytes = 0, 0
	clear(m.BucketCounts)
	m.Features, m.Labels, m.TrainNodes, m.ValidNodes, m.TestNodes, m.Dict, m.QuantScales = nil, nil, nil, nil, nil, nil, nil
	empty, err := json.Marshal(&m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storage.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "edges.bin"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := storage.OpenDataset(dir)
		if err != nil {
			if !errors.Is(err, storage.ErrCorruptDataset) && !errors.Is(err, storage.ErrDatasetVersion) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		es, err := ds.EdgeStore(nil)
		if err != nil {
			t.Fatalf("opened dataset has no edge store: %v", err)
		}
		defer es.Close()
		p := ds.Man.Partitions
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if n := es.BucketLen(i, j); n < 0 {
					t.Fatalf("bucket (%d,%d) holds %d edges", i, j, n)
				}
			}
		}
	})
}
