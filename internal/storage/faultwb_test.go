package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// toggleFS fails every data write with ENOSPC while fail is set, and
// every data read with EIO while failReads is set (nil: never) — a
// switchable full or broken disk, unlike the probabilistic injector, so
// the test controls exactly which IO fails and when the disk "recovers".
// onWrite and onRead, when set, see every data write and read before it
// runs.
type toggleFS struct {
	inner           fault.FS
	fail            *atomic.Bool
	failReads       *atomic.Bool
	onWrite, onRead func(name string, off int64)
}

func (t toggleFS) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return toggleFile{File: f, fs: t}, nil
}

func (t toggleFS) Create(name string) (fault.File, error) { return t.wrap(t.inner.Create(name)) }
func (t toggleFS) Open(name string) (fault.File, error)   { return t.wrap(t.inner.Open(name)) }
func (t toggleFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}
func (t toggleFS) CreateTemp(dir, pattern string) (fault.File, error) {
	return t.wrap(t.inner.CreateTemp(dir, pattern))
}
func (t toggleFS) Rename(oldpath, newpath string) error  { return t.inner.Rename(oldpath, newpath) }
func (t toggleFS) Remove(name string) error              { return t.inner.Remove(name) }
func (t toggleFS) Stat(name string) (os.FileInfo, error) { return t.inner.Stat(name) }

type toggleFile struct {
	fault.File
	fs toggleFS
}

func (f toggleFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f toggleFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.fail.Load() {
		return 0, syscall.ENOSPC
	}
	if f.fs.onWrite != nil {
		f.fs.onWrite(f.Name(), off)
	}
	return f.File.WriteAt(p, off)
}

func (f toggleFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.failReads != nil && f.fs.failReads.Load() {
		return 0, syscall.EIO
	}
	if f.fs.onRead != nil {
		f.fs.onRead(f.Name(), off)
	}
	return f.File.ReadAt(p, off)
}

// newToggleStore creates a learnable 40-node, 4-partition store (node id
// initialised to id, so partition p's rows start at 10p) over a toggleFS.
func newToggleStore(t *testing.T, capacity int, fsys toggleFS) *DiskNodeStore {
	t.Helper()
	if fsys.inner == nil {
		fsys.inner = fault.OS
	}
	if fsys.fail == nil {
		fsys.fail = new(atomic.Bool)
	}
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: t.TempDir(), Part: partition.New(40, 4), Dim: 4, Capacity: capacity, Learnable: true, FS: fsys,
		Init: func(id int32, row []float32) {
			for j := range row {
				row[j] = float32(id)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// gatherRows returns the store's current rows for ids.
func gatherRows(t *testing.T, s *DiskNodeStore, ids ...int32) []float32 {
	t.Helper()
	out := tensor.New(len(ids), s.Dim())
	if err := s.Gather(ids, out); err != nil {
		t.Fatal(err)
	}
	return out.Data
}

// bump applies a gradient of ones to ids (AdaGrad at rate 1 moves each
// element by -1 on a fresh row).
func bump(t *testing.T, s *DiskNodeStore, ids ...int32) {
	t.Helper()
	grads := tensor.New(len(ids), s.Dim())
	grads.Fill(1)
	if err := s.ApplyGrads(ids, grads, nn.NewSparseAdaGrad(1.0)); err != nil {
		t.Fatal(err)
	}
}

// failEviction dirties partitions 0 and 1 of a one-partition buffer (two
// partitions held, and a landing frame), fills the disk and loads
// partition 2: its read lands in the landing frame, and the write-back
// of partition 0, evicted to free a frame, fails once that LoadSet has
// returned. The next LoadSet reports it. It returns partition 0's updated
// rows.
func failEviction(t *testing.T, s *DiskNodeStore, failing *atomic.Bool) []float32 {
	t.Helper()
	if err := s.LoadSet([]int{0}); err != nil {
		t.Fatal(err)
	}
	bump(t, s, 0)
	want := gatherRows(t, s, 0)
	if err := s.LoadSet([]int{1}); err != nil {
		t.Fatal(err)
	}
	bump(t, s, 10)
	failing.Store(true)
	if err := s.LoadSet([]int{2}); err != nil {
		t.Fatalf("LoadSet whose read lands in the landing frame: %v", err)
	}
	waitIdle(s)
	if err := s.LoadSet([]int{2}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("LoadSet after a failed write-back: got %v, want ENOSPC", err)
	}
	return want
}

// waitIdle blocks until no read or write-back is in flight.
func waitIdle(s *DiskNodeStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.running {
		s.ioDone.Wait()
	}
}

// dirtyParts lists the partitions whose frame holds the only current
// copy: updated, or their write-back failed.
func dirtyParts(s *DiskNodeStore) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for p, st := range s.b.parts {
		if st.ph == dirty {
			out = append(out, p)
		}
	}
	return out
}

// TestEvictWritebackFailureSurfacesAndRetries is the evict-side fault
// contract: when the write-back of a dirty partition evicted to free a
// frame fails, (1) the error surfaces on the training path (the next
// LoadSet, and every LoadSet after it — the epoch fails rather than
// silently losing updates), (2) the frame keeps the unwritten
// data, and (3) once the disk recovers, Flush retries it, clears the
// sticky error, and the store reads back every update — nothing was lost.
func TestEvictWritebackFailureSurfacesAndRetries(t *testing.T) {
	var failing atomic.Bool
	store := newToggleStore(t, 1, toggleFS{fail: &failing})
	want := failEviction(t, store, &failing)

	// The failure stays on the training path instead of vanishing.
	if err := store.LoadSet([]int{2}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("LoadSet after failed write-back: got %v, want ENOSPC", err)
	}
	// The unwritten partitions stay in their frames for a retry.
	if got := dirtyParts(store); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("store holds unwritten updates of %v, want [0 1]", got)
	}
	// While the disk is still full, Flush keeps failing (no false
	// success), and the error stays sticky.
	if err := store.Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Flush on full disk: got %v, want ENOSPC", err)
	}
	if err := store.LoadSet([]int{2}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("LoadSet after failed retry: got %v, want ENOSPC", err)
	}

	// Disk recovers: Flush retries the writes and clears the sticky
	// error; the store is consistent again.
	failing.Store(false)
	if err := store.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if got := dirtyParts(store); len(got) != 0 {
		t.Fatalf("after successful retry %v are still unwritten", got)
	}

	// Reads see every pre-failure update, read back from the disk once
	// partition 0's frame has been reused — nothing was lost or rolled
	// back across the failure window.
	for _, set := range [][]int{{2}, {3}, {0}} {
		if err := store.LoadSet(set); err != nil {
			t.Fatalf("LoadSet(%v) after recovery: %v", set, err)
		}
	}
	if got := gatherRows(t, store, 0); !slices.Equal(got, want) {
		t.Fatalf("row data diverged after failed-write recovery: got %v, want %v", got, want)
	}
}

// TestFailedLoadRetryAfterRecovery: a LoadSet whose reads fail returns the
// read error and leaves the buffer as it was, however often it is
// retried, so the same LoadSet succeeds once the disk recovers.
func TestFailedLoadRetryAfterRecovery(t *testing.T) {
	var failReads atomic.Bool
	store := newToggleStore(t, 2, toggleFS{failReads: &failReads})
	failReads.Store(true)
	store.Plan([][]int{{0, 1}}) // a failed planned read is read again by LoadSet
	for i := 0; i < 3; i++ {
		if err := store.LoadSet([]int{0, 1}); !errors.Is(err, syscall.EIO) {
			t.Fatalf("LoadSet %d on a failing disk: got %v, want EIO", i, err)
		}
	}
	failReads.Store(false)
	if err := store.LoadSet([]int{0, 1}); err != nil {
		t.Fatalf("LoadSet after recovery: %v", err)
	}
	if got := store.Resident(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("resident %v, want [0 1]", got)
	}
	if got := gatherRows(t, store, 0, 19); got[0] != 0 || got[4] != 19 {
		t.Fatalf("rows after recovery: %v", got)
	}
}

// TestPrefetchAfterFailedEvictKeepsUpdate: a partition whose write-back
// failed holds its only current copy in its frame, so a plan compiled
// over it reads no stale bytes from disk for a later load to consume.
func TestPrefetchAfterFailedEvictKeepsUpdate(t *testing.T) {
	var failing atomic.Bool
	store := newToggleStore(t, 1, toggleFS{fail: &failing})
	want := failEviction(t, store, &failing)
	failing.Store(false)
	store.Plan([][]int{{2}, {0}})
	waitIdle(store)
	if err := store.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	for _, set := range [][]int{{2}, {0}} {
		if err := store.LoadSet(set); err != nil {
			t.Fatal(err)
		}
	}
	if got := gatherRows(t, store, 0); !slices.Equal(got, want) {
		t.Fatalf("partition 0 came back as %v, want %v", got, want)
	}
}

// TestRejectedRestoreChangesNothing: a Restore whose table or optimizer
// state has the wrong shape fails before touching the disk, the buffer,
// the unwritten frames or the latched error.
func TestRejectedRestoreChangesNothing(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		store := newToggleStore(t, 2, toggleFS{})
		if err := store.LoadSet([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		bump(t, store, 3)
		before, beforeState, err := store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		table := before.Clone()
		table.Fill(7)
		if err := store.Restore(table, make([]float32, 3)); err == nil {
			t.Fatal("Restore with 3 optimizer rows for 40 nodes succeeded")
		}
		if err := store.Restore(tensor.New(40, 5), nil); err == nil {
			t.Fatal("Restore of a 40x5 table into a 40x4 store succeeded")
		}
		after, afterState, err := store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(after.Data, before.Data) || !slices.Equal(afterState, beforeState) {
			t.Fatal("a rejected Restore changed the stored table")
		}
		if got := gatherRows(t, store, 3); got[0] != before.At(3, 0) {
			t.Fatalf("a rejected Restore changed the resident rows: %v", got)
		}
	})
	t.Run("retained", func(t *testing.T) {
		var failing atomic.Bool
		store := newToggleStore(t, 1, toggleFS{fail: &failing})
		want := failEviction(t, store, &failing)
		failing.Store(false)
		table := tensor.New(40, 4)
		table.Fill(7)
		if err := store.Restore(table, make([]float32, 3)); err == nil {
			t.Fatal("Restore with 3 optimizer rows for 40 nodes succeeded")
		}
		if err := store.Flush(); err != nil {
			t.Fatalf("Flush retrying the write-back a rejected Restore kept: %v", err)
		}
		got, _, err := store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Row(0), want) {
			t.Fatalf("partition 0 on disk is %v, want %v", got.Row(0), want)
		}
	})
}

// TestFlushWritesAscending: Flush writes dirty partitions back in
// ascending partition order, the same on every call.
func TestFlushWritesAscending(t *testing.T) {
	var mu sync.Mutex
	var offs []int64
	store := newToggleStore(t, 4, toggleFS{onWrite: func(name string, off int64) {
		if filepath.Base(name) == "nodes.bin" {
			mu.Lock()
			offs = append(offs, off)
			mu.Unlock()
		}
	}})
	if err := store.LoadSet([]int{3, 1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 160, 320, 480} // PartSize 10 × 4 floats × 4 bytes
	for round := 0; round < 2; round++ {
		mu.Lock()
		offs = nil
		mu.Unlock()
		bump(t, store, 35, 5, 25, 15)
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := slices.Clone(offs)
		mu.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("Flush %d wrote partitions at offsets %v, want %v", round, got, want)
		}
	}
}
