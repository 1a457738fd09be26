package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func sampleFile() *File {
	return &File{
		Version: Version,
		Task:    "lp",
		Epoch:   3,
		Seed:    42,
		Params: []nn.ParamState{
			{Name: "w", Rows: 2, Cols: 2, Value: []float32{1, 2, 3, 4}, M: []float32{0, 0, 0, 0}, V: []float32{0, 0, 0, 0}},
		},
		TableRows: 2, TableCols: 2,
		Table:    []float32{5, 6, 7, 8},
		OptState: []float32{0.1, 0.2},
		Model: ModelMeta{
			Kind: KindDistMult, Dim: 2, NumRels: 1, FeatureDim: 2,
		},
		DatasetUUID: "test-uuid",
	}
}

// leftoverTemps lists .ckpt-* temp files in dir; atomic writes must never
// leave one behind, whether they succeed or fail.
func leftoverTemps(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return matches
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	want := sampleFile()
	if err := Write(path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Task != want.Task || got.Epoch != want.Epoch || got.Seed != want.Seed {
		t.Errorf("header mismatch: got %+v", got)
	}
	if len(got.Table) != len(want.Table) {
		t.Fatalf("table length: got %d want %d", len(got.Table), len(want.Table))
	}
	for i := range want.Table {
		if got.Table[i] != want.Table[i] {
			t.Errorf("table[%d]: got %v want %v", i, got.Table[i], want.Table[i])
		}
	}
	if got.Model.Kind != KindDistMult || got.Model.Dim != 2 || got.Model.NumRels != 1 || got.Model.FeatureDim != 2 {
		t.Errorf("model meta mismatch: got %+v", got.Model)
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after successful Write: %v", left)
	}
}

// os.CreateTemp creates files 0600; a checkpoint that keeps that mode is
// invisible to any other user (e.g. a serving process) after rename.
// Write must publish it world-readable like every other artifact.
func TestWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := Write(path, sampleFile()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("checkpoint mode = %o, want 644", perm)
	}
}

// A failed write (simulating a short write / encode error) must leave no
// temp file behind and must not disturb an existing checkpoint at the
// destination.
func TestAtomicWriteFailureLeavesDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := Write(path, sampleFile()); err != nil {
		t.Fatalf("seed Write: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read seed checkpoint: %v", err)
	}

	boom := errors.New("short write")
	err = atomicWrite(nil, path, ".ckpt-*", func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("atomicWrite error = %v, want %v", err, boom)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination gone after failed write: %v", err)
	}
	if string(after) != string(before) {
		t.Errorf("failed write corrupted the existing checkpoint")
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after failed write: %v", left)
	}
	if got, err := Read(path); err != nil || got.Epoch != 3 {
		t.Errorf("existing checkpoint unreadable after failed write: %v", err)
	}
}

func TestWriteOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	first := sampleFile()
	if err := Write(path, first); err != nil {
		t.Fatalf("first Write: %v", err)
	}
	second := sampleFile()
	second.Epoch = 9
	if err := Write(path, second); err != nil {
		t.Fatalf("second Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Epoch != 9 {
		t.Errorf("epoch = %d, want 9 (overwrite not visible)", got.Epoch)
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// smallCheckpoint returns the bytes of a real checkpoint (one DistMult
// epoch over 24 entities at dim 4, saved by marius.Session.Save) and of
// the same file with its table cut to half its rows' values.
func smallCheckpoint(t testing.TB) (good, truncated []byte) {
	t.Helper()
	good, err := os.ReadFile(filepath.Join("testdata", "lp-small.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var cp File
	if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Table = cp.Table[:len(cp.Table)/2]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	return good, buf.Bytes()
}

// readBytes writes data as a checkpoint file and reads it back.
func readBytes(t testing.TB, data []byte) (*File, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Read(path)
}

// TestReadRefusesShapeMismatch pins that Read refuses a checkpoint whose
// table or accumulators disagree with its recorded shape, or whose shape
// is negative, with ErrMismatch naming the table: a loader that copied
// such a table would silently leave rows zeroed.
func TestReadRefusesShapeMismatch(t *testing.T) {
	good, truncated := smallCheckpoint(t)
	if cp, err := readBytes(t, good); err != nil || len(cp.Table) != cp.TableRows*cp.TableCols || len(cp.Table) == 0 {
		t.Fatalf("real checkpoint: %v", err)
	}
	cases := map[string][]byte{"truncated table": truncated}
	for name, edit := range map[string]func(*File){
		"short accumulators": func(f *File) { f.OptState = f.OptState[:1] },
		"negative rows":      func(f *File) { f.TableRows, f.Table, f.OptState = -2, nil, nil },
		"negative cols":      func(f *File) { f.TableCols, f.Table = -2, []float32{1, 2, 3, 4} },
		"table without cols": func(f *File) { f.TableCols = 0 },
	} {
		f := sampleFile()
		edit(f)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		cases[name] = buf.Bytes()
	}
	for name, data := range cases {
		_, err := readBytes(t, data)
		if !errors.Is(err, ErrMismatch) || !strings.Contains(err.Error(), "table") {
			t.Errorf("%s: Read = %v, want ErrMismatch naming the table", name, err)
		}
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to Read as a checkpoint file:
// it must refuse them with ErrCorrupt or ErrMismatch, or return a file
// whose table and accumulators match its shape, so every loader can take
// them as a tensor. It must never panic.
func FuzzReadCheckpoint(f *testing.F) {
	good, truncated := smallCheckpoint(f)
	f.Add(good)
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := readBytes(t, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		rows, cols := cp.TableRows, cp.TableCols
		if rows < 0 || cols < 0 {
			t.Fatalf("accepted negative shape %dx%d", rows, cols)
		}
		if len(cp.Table) != 0 {
			tensor.FromSlice(rows, cols, cp.Table) // panics on a length mismatch
			if len(cp.Table)/cols != rows {
				t.Fatalf("accepted %d values for a %dx%d table", len(cp.Table), rows, cols)
			}
		}
		if len(cp.OptState) != 0 && len(cp.OptState) != rows {
			t.Fatalf("accepted %d accumulators for %d rows", len(cp.OptState), rows)
		}
	})
}
