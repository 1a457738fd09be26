package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// newLearnableStore creates a learnable disk store over n nodes of dim
// floats in p partitions, c of them buffered, with seeded initial rows, and
// loads the partitions in resident.
func newLearnableStore(t *testing.T, n, dim, p, c int, resident []int) *DiskNodeStore {
	t.Helper()
	s, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: t.TempDir(), Part: partition.New(n, p), Dim: dim, Capacity: c, Learnable: true,
		Init: func(id int32, row []float32) {
			rng := rand.New(rand.NewSource(int64(id)))
			for j := range row {
				row[j] = float32(rng.NormFloat64())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.LoadSet(resident); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestApplyGradsAllOrNothing: an update naming a non-resident node fails
// before any row is stepped, so the table, the accumulators and the dirty
// set are as they were, and the same update without that node then lands.
func TestApplyGradsAllOrNothing(t *testing.T) {
	const n, dim, p, c = 100, 8, 10, 4
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s := newLearnableStore(t, n, dim, p, c, []int{0, 3, 7, 9})
			ids := []int32{2, 35, 74, 99, 15, 31, 5} // 15 is in partition 1, not resident
			grads := tensor.New(len(ids), dim)
			grads.RandNormal(rand.New(rand.NewSource(3)), 1)
			opt := nn.NewSparseAdaGrad(0.5)
			opt.Workers = workers

			frames, parts := slices.Clone(s.frames), slices.Clone(s.b.parts)
			if err := s.ApplyGrads(ids, grads, opt); err == nil {
				t.Fatal("ApplyGrads over a non-resident node succeeded")
			}
			if !sameFloats(s.frames, frames) {
				t.Fatal("failed ApplyGrads changed the buffered rows or accumulators")
			}
			if !reflect.DeepEqual(s.b.parts, parts) {
				t.Fatal("failed ApplyGrads changed the partition states (dirty set)")
			}

			keep := slices.Delete(slices.Clone(ids), 4, 5)
			kept := tensor.FromSlice(len(keep), dim, slices.Delete(slices.Clone(grads.Data), 4*dim, 5*dim))
			if err := s.ApplyGrads(keep, kept, opt); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(s.frames, frames) {
				t.Fatal("ApplyGrads over resident nodes changed nothing")
			}
			for _, q := range []int{0, 3, 7, 9} {
				if ph := s.b.parts[q].ph; ph != dirty {
					t.Fatalf("partition %d is %v after an update, want dirty", q, ph)
				}
			}
		})
	}
}

// TestApplyGradsSameAtEveryWorkerCount steps batches of distinct rows —
// enough work to fan out — at 1 and at 4 workers, into a disk store and a
// memory store each, and demands the four end states equal byte for byte.
func TestApplyGradsSameAtEveryWorkerCount(t *testing.T) {
	const n, dim, p, c = 2000, 24, 4, 4
	all := []int{0, 1, 2, 3}
	var disk [2]*DiskNodeStore
	var mem [2]*MemoryNodeStore
	for k, workers := range []int{1, 4} {
		s := newLearnableStore(t, n, dim, p, c, all)
		ref, _, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMemoryNodeStore(ref, true)
		opt := nn.NewSparseAdaGrad(0.3)
		opt.Workers = workers
		rng := rand.New(rand.NewSource(9))
		for step := 0; step < 5; step++ {
			ids := make([]int32, 0, 900)
			for _, id := range rng.Perm(n)[:900] {
				ids = append(ids, int32(id))
			}
			grads := tensor.New(len(ids), dim)
			grads.RandNormal(rng, 1)
			for _, st := range []NodeStore{s, m} {
				if err := st.ApplyGrads(ids, grads, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		disk[k], mem[k] = s, m
	}
	if !sameFloats(disk[0].frames, disk[1].frames) {
		t.Fatal("disk store rows or accumulators differ between 1 and 4 workers")
	}
	if !sameFloats(mem[0].table.Data, mem[1].table.Data) || !sameFloats(mem[0].state, mem[1].state) {
		t.Fatal("memory store rows or accumulators differ between 1 and 4 workers")
	}
	// The disk store's buffered rows and accumulators are the memory store's.
	for q := 0; q < p; q++ {
		start, end := disk[0].pt.Range(q)
		frame := disk[0].frame(disk[0].b.frameOf(q))
		rows, acc := frame[:int(end-start)*dim], frame[disk[0].pt.PartSize*dim:][:end-start]
		if !sameFloats(rows, mem[0].table.Data[int(start)*dim:int(end)*dim]) || !sameFloats(acc, mem[0].state[start:end]) {
			t.Fatalf("partition %d: disk store differs from the memory store", q)
		}
	}
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
