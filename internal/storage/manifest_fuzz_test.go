package storage_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
)

// overflowManifest declares 2³² partitions over empty bucket tables: p²
// wraps to 0 in int arithmetic, so a length check that computes p*p
// accepts it and the first BucketLen(0, 1) indexes past the offsets.
const overflowManifest = `{"version":1,"task":"lp","seed":0,"partitions":4294967296,` +
	`"num_nodes":1,"num_rels":1,"num_edges":0,"bucket_counts":[],"bucket_crc32s":[],` +
	`"edges":{"name":"edges.bin","bytes":0,"crc32":0}}`

// traversalManifest names an edge file in the dataset directory's parent.
// A reader that joined it unchecked would open a file outside the
// dataset.
const traversalManifest = `{"version":1,"task":"lp","seed":0,"partitions":1,` +
	`"num_nodes":1,"num_rels":1,"num_edges":1,"bucket_counts":[1],"bucket_crc32s":[0],` +
	`"edges":{"name":"../outside.bin","bytes":12,"crc32":0}}`

// recordFS is the real filesystem, recording every path opened, statted
// or written through it.
type recordFS struct {
	fault.FS
	paths []string
}

func (r *recordFS) touch(name string) string {
	r.paths = append(r.paths, name)
	return name
}

func (r *recordFS) Create(name string) (fault.File, error) { return r.FS.Create(r.touch(name)) }
func (r *recordFS) Open(name string) (fault.File, error)   { return r.FS.Open(r.touch(name)) }
func (r *recordFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	return r.FS.OpenFile(r.touch(name), flag, perm)
}
func (r *recordFS) CreateTemp(dir, pattern string) (fault.File, error) {
	r.touch(filepath.Join(dir, pattern))
	return r.FS.CreateTemp(dir, pattern)
}
func (r *recordFS) Rename(oldpath, newpath string) error {
	return r.FS.Rename(r.touch(oldpath), r.touch(newpath))
}
func (r *recordFS) Remove(name string) error              { return r.FS.Remove(r.touch(name)) }
func (r *recordFS) Stat(name string) (os.FileInfo, error) { return r.FS.Stat(r.touch(name)) }

// outside returns the first recorded path that is not a file directly
// inside dir, or "".
func (r *recordFS) outside(dir string) string {
	for _, p := range r.paths {
		if filepath.Dir(filepath.Clean(p)) != dir {
			return p
		}
	}
	return ""
}

// TestManifestNamesStayInside pins that a payload name which is not a
// plain file name is refused with ErrCorruptDataset before any file is
// touched: a traversal to a real file in the parent directory, and every
// other shape of name that leaves the directory or names none.
func TestManifestNamesStayInside(t *testing.T) {
	parent := t.TempDir()
	if err := os.WriteFile(filepath.Join(parent, "outside.bin"), make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(parent, "ds")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "edges.bin"), make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	var m storage.Manifest
	if err := json.Unmarshal([]byte(traversalManifest), &m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../outside.bin", "", ".", "..", filepath.Join(parent, "outside.bin"),
		"sub/edges.bin", `sub\edges.bin`} {
		for _, payload := range []string{"edges", "labels"} {
			m.Edges.Name, m.Labels = name, nil
			if payload == "labels" {
				m.Edges.Name, m.Labels = "edges.bin", &storage.DatasetFile{Name: name, Bytes: 12}
			}
			raw, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, storage.ManifestName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			rec := &recordFS{FS: fault.OS}
			if _, err := storage.OpenDatasetFS(rec, dir); !errors.Is(err, storage.ErrCorruptDataset) {
				t.Errorf("%s named %q: err = %v, want ErrCorruptDataset", payload, name, err)
			}
			if p := rec.outside(dir); p != "" {
				t.Errorf("%s named %q: opening touched %s", payload, name, p)
			}
		}
	}
}

// FuzzReadManifest feeds untrusted bytes to OpenDataset as manifest.json
// beside an empty edges.bin, reading through a filesystem that records
// every path. It must either refuse them with ErrCorruptDataset or
// ErrDatasetVersion, or return a dataset whose edge store answers
// BucketLen for every bucket without panicking; either way, no path
// outside the dataset directory may be touched. The seeds are the
// overflowing manifest, a valid manifest from a tiny ingest (refused
// here: its payload files are absent), that manifest cut down to no edges
// and no payload files, which opens, and the traversing manifest.
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
	f.Add([]byte(traversalManifest))

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storage.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "edges.bin"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := &recordFS{FS: fault.OS}
		defer func() {
			if p := rec.outside(dir); p != "" {
				t.Fatalf("touched %s, outside the dataset directory", p)
			}
		}()
		ds, err := storage.OpenDatasetFS(rec, dir)
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
