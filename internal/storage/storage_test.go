package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func TestDiskNodeStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 100, 8, 10, 4
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
		Init: func(id int32, row []float32) {
			for j := range row {
				row[j] = float32(id)*100 + float32(j)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := store.LoadSet([]int{0, 3, 7, 9}); err != nil {
		t.Fatal(err)
	}
	ids := []int32{0, 35, 74, 99, 5}
	out := tensor.New(len(ids), dim)
	if err := store.Gather(ids, out); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		for j := 0; j < dim; j++ {
			if want := float32(id)*100 + float32(j); out.At(i, j) != want {
				t.Fatalf("node %d dim %d: got %v want %v", id, j, out.At(i, j), want)
			}
		}
	}
	// Gathering a non-resident node must fail.
	if err := store.Gather([]int32{15}, tensor.New(1, dim)); err == nil {
		t.Fatal("expected error for non-resident node")
	}
}

func TestDiskNodeStoreUpdatePersistsAcrossSwaps(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 60, 4, 6, 2
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	opt := nn.NewSparseAdaGrad(1.0)
	if err := store.LoadSet([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	grads := tensor.New(1, dim)
	grads.Fill(1)
	if err := store.ApplyGrads([]int32{5}, grads, opt); err != nil {
		t.Fatal(err)
	}
	before := tensor.New(1, dim)
	if err := store.Gather([]int32{5}, before); err != nil {
		t.Fatal(err)
	}
	// Swap partition 0 out and back in: the update must survive.
	if err := store.LoadSet([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := store.LoadSet([]int{0, 4}); err != nil {
		t.Fatal(err)
	}
	after := tensor.New(1, dim)
	if err := store.Gather([]int32{5}, after); err != nil {
		t.Fatal(err)
	}
	if !before.Equal(after, 0) {
		t.Fatalf("update lost across swap: %v vs %v", before, after)
	}
	// AdaGrad state must persist too: a second identical gradient must
	// move the row less than the first did.
	if err := store.ApplyGrads([]int32{5}, grads, opt); err != nil {
		t.Fatal(err)
	}
	second := tensor.New(1, dim)
	if err := store.Gather([]int32{5}, second); err != nil {
		t.Fatal(err)
	}
	step1 := float64(before.At(0, 0)) // from 0
	step2 := float64(second.At(0, 0) - after.At(0, 0))
	if !(step2 < 0 && step1 < 0 && step2 > step1) {
		t.Fatalf("AdaGrad state not persisted: step1=%v step2=%v", step1, step2)
	}
}

// TestDiskNodeStorePrefetchMatchesDirectLoad: the loads of a plan, read
// ahead by the store's IO goroutine, serve the same rows as LoadSet calls
// outside any plan, and leave the same partitions resident.
func TestDiskNodeStorePrefetchMatchesDirectLoad(t *testing.T) {
	const n, dim, p, c = 80, 6, 8, 3
	pt := partition.New(n, p)
	sets := [][]int{{0, 1, 2}, {5, 6, 2}, {7, 3, 4}, {0, 5, 1}}
	var stores [2]*DiskNodeStore
	for k := range stores {
		store, err := CreateDiskNodeStore(DiskStoreConfig{
			Dir: t.TempDir(), Part: pt, Dim: dim, Capacity: c,
			Init: func(id int32, row []float32) { row[0] = float32(id) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		stores[k] = store
	}
	stores[0].Plan(sets)
	for _, set := range sets {
		for _, store := range stores {
			if err := store.LoadSet(set); err != nil {
				t.Fatal(err)
			}
			ids := []int32{int32(set[0]*10 + 3), int32(set[len(set)-1]*10 + 9)}
			out := tensor.New(len(ids), dim)
			if err := store.Gather(ids, out); err != nil {
				t.Fatal(err)
			}
			if out.At(0, 0) != float32(ids[0]) || out.At(1, 0) != float32(ids[1]) {
				t.Fatalf("set %v: rows %v, want ids %v", set, out.Data, ids)
			}
			if res, want := store.Resident(), slices.Sorted(slices.Values(set)); !slices.Equal(res, want) {
				t.Fatalf("resident = %v, want %v", res, want)
			}
		}
	}
}

// TestDiskPlanAbandonedMidway: an epoch that stops after its first visit
// leaves the IO goroutine waiting for a release that never comes; a nil
// plan stops it once its op in flight lands and drops the plan, and the
// store serves loads outside any plan again with the rows it held.
func TestDiskPlanAbandonedMidway(t *testing.T) {
	const n, dim, p, c = 40, 4, 4, 1
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: t.TempDir(), Part: partition.New(n, p), Dim: dim, Capacity: c,
		Init: func(id int32, row []float32) { row[0] = float32(id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Two frames: the read for visit 2 waits for visit 0's release.
	store.Plan([][]int{{0}, {1}, {2}, {3}})
	if err := store.LoadSet([]int{0}); err != nil {
		t.Fatal(err)
	}
	store.Plan(nil)
	store.mu.Lock()
	running, pending := store.running, store.run != nil
	store.mu.Unlock()
	if running || pending {
		t.Fatal("the dropped plan or its IO goroutine outlived Plan(nil)")
	}
	// The dropped plan's next set is loaded as a plan of one visit, not
	// by resuming the dropped plan.
	for _, set := range [][]int{{1}, {3}, {0}} {
		if err := store.LoadSet(set); err != nil {
			t.Fatal(err)
		}
		out := tensor.New(1, dim)
		if err := store.Gather([]int32{int32(set[0]*10 + 7)}, out); err != nil {
			t.Fatal(err)
		}
		if out.At(0, 0) != float32(set[0]*10+7) {
			t.Fatalf("set %v: row %v", set, out.Data)
		}
	}
}

// TestDiskMatchesMemoryStoreUnderRandomOps drives a disk store and a
// memory store through the same random updates, loading sets that follow
// a random plan or stray from it. With frames fewer than the partitions
// it also reuses frames and toggles a full disk: a LoadSet that reports a
// failed write-back is followed by a Flush once the disk recovers, and
// every update must survive.
func TestDiskMatchesMemoryStoreUnderRandomOps(t *testing.T) {
	for _, c := range []int{5, 3, 2, 1} {
		t.Run(fmt.Sprintf("capacity=%d", c), func(t *testing.T) {
			const n, dim, p = 50, 4, 5
			pt := partition.New(n, p)
			table := tensor.New(n, dim)
			rng := rand.New(rand.NewSource(int64(c)))
			table.RandNormal(rng, 1)
			memStore := NewMemoryNodeStore(table.Clone(), true)
			var failing atomic.Bool
			diskStore, err := CreateDiskNodeStore(DiskStoreConfig{
				Dir: t.TempDir(), Part: pt, Dim: dim, Capacity: c, Learnable: true,
				FS:   toggleFS{inner: fault.OS, fail: &failing},
				Init: func(id int32, row []float32) { copy(row, table.Row(int(id))) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer diskStore.Close()

			optM := nn.NewSparseAdaGrad(0.1)
			optD := nn.NewSparseAdaGrad(0.1)
			failures := 0
			var plan [][]int
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r < 1:
					plan = make([][]int, rng.Intn(5)+1)
					for i := range plan {
						plan[i] = rng.Perm(p)[:rng.Intn(c)+1]
					}
					diskStore.Plan(plan)
				case r < 2 && c < p:
					failing.Store(rng.Intn(3) == 0)
				case r < 5:
					set := rng.Perm(p)[:c]
					if len(plan) > 0 && rng.Intn(4) > 0 {
						set, plan = plan[0], plan[1:]
					}
					if err := diskStore.LoadSet(set); err != nil {
						if !errors.Is(err, syscall.ENOSPC) {
							t.Fatalf("step %d: LoadSet: %v", step, err)
						}
						failures++
						failing.Store(false)
						if err := diskStore.Flush(); err != nil {
							t.Fatalf("step %d: Flush after recovery: %v", step, err)
						}
						if err := diskStore.LoadSet(set); err != nil {
							t.Fatalf("step %d: LoadSet after recovery: %v", step, err)
						}
					}
				default:
					res := diskStore.Resident()
					if len(res) == 0 {
						continue
					}
					ids := make([]int32, rng.Intn(8)+1)
					for i := range ids {
						start, end := pt.Range(res[rng.Intn(len(res))])
						ids[i] = start + int32(rng.Intn(int(end-start)))
					}
					grads := tensor.New(len(ids), dim)
					grads.RandNormal(rng, 1)
					if err := memStore.ApplyGrads(ids, grads, optM); err != nil {
						t.Fatal(err)
					}
					if err := diskStore.ApplyGrads(ids, grads, optD); err != nil {
						t.Fatal(err)
					}
					got, want := tensor.New(len(ids), dim), tensor.New(len(ids), dim)
					memStore.Gather(ids, want)
					if err := diskStore.Gather(ids, got); err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want, 0) {
						t.Fatalf("step %d: rows %v diverged", step, ids)
					}
				}
			}
			failing.Store(false)
			all, err := diskStore.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if !all.Equal(memStore.Table(), 0) {
				t.Fatal("disk and memory stores diverged")
			}
			t.Logf("%d failed write-backs recovered", failures)
		})
	}
}

func TestDiskNodeStoreIOCounters(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 60, 4, 6, 2
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	perPart := int64(pt.PartSize * dim * 4)
	// Two sets fill the 2c frames without reusing one; the third reads
	// one partition into the frame of a held one.
	for _, step := range []struct {
		set          []int
		reads, swaps int64
	}{{[]int{0, 1}, 2, 0}, {[]int{2, 3}, 2, 0}, {[]int{1, 4}, 1, 1}} {
		snap := store.Stats().Snapshot()
		if err := store.LoadSet(step.set); err != nil {
			t.Fatal(err)
		}
		d := store.Stats().Snapshot().Sub(snap)
		if d.BytesRead != step.reads*perPart || d.Reads != step.reads || d.Swaps != step.swaps {
			t.Fatalf("LoadSet(%v): %+v, want %d partitions read and %d swaps", step.set, d, step.reads, step.swaps)
		}
	}
}

// ReadAll copies held partitions from their frames and reads only the
// absent ones, one read per run of them: the table is bit-identical to a
// cold read (nothing held) for float32, fp16 and int8 tables and for a
// learnable one with dirty partitions, the bytes read are exactly the
// absent partitions', and the buffer keeps what it held.
func TestDiskReadAllServesResidentPartitions(t *testing.T) {
	const n, dim, p, c = 47, 3, 5, 2 // the last partition holds 7 nodes
	pt := partition.New(n, p)
	ref := tensor.New(n, dim)
	ref.RandNormal(rand.New(rand.NewSource(5)), 1)
	initRef := func(id int32, row []float32) { copy(row, ref.Row(int(id))) }
	resident, absent := []int{1, 3}, []int{0, 2, 4}

	for _, tc := range []struct {
		name      string
		quant     tensor.QuantKind
		learnable bool
	}{
		{"float32", tensor.QuantNone, false},
		{"learnable-dirty", tensor.QuantNone, true},
		{"fp16", tensor.QuantF16, false},
		{"int8", tensor.QuantI8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var store *DiskNodeStore
			want := ref
			var err error
			path, scalePath := filepath.Join(dir, "nodes.bin"), ""
			if tc.quant == tensor.QuantNone {
				store, err = CreateDiskNodeStore(DiskStoreConfig{
					Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: tc.learnable, Init: initRef,
				})
			} else {
				var q *tensor.QTable
				store, q, err = openQuantStore(dir, pt, ref, tc.quant, c)
				want = tensor.RefDequant(q)
				path = filepath.Join(dir, "features.bin")
				if tc.quant == tensor.QuantI8 {
					scalePath = filepath.Join(dir, "scales.bin")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if err := store.LoadSet(resident); err != nil {
				t.Fatal(err)
			}
			if tc.learnable {
				// Dirty both resident partitions; the memory store is the
				// table the disk one must end up with.
				mem := NewMemoryNodeStore(ref.Clone(), true)
				ids := []int32{10, 19, 30, 34, 10}
				grads := tensor.New(len(ids), dim)
				grads.RandNormal(rand.New(rand.NewSource(6)), 1)
				opt := nn.NewSparseAdaGrad(0.5)
				for _, s := range []NodeStore{store, mem} {
					if err := s.ApplyGrads(ids, grads, opt); err != nil {
						t.Fatal(err)
					}
				}
				want = mem.Table()
			}
			eb := int64(tc.quant.ElemBytes())
			partBytes := func(parts ...int) (b int64) {
				for _, q := range parts {
					start, end := pt.Range(q)
					b += int64(end-start) * dim * eb
				}
				return b
			}

			before := store.Stats().Snapshot()
			warm, err := store.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			d := store.Stats().Snapshot().Sub(before)
			if d.BytesRead != partBytes(absent...) || d.Reads != int64(len(absent)) {
				t.Fatalf("ReadAll with %v resident read %d bytes in %d reads, want %d in %d",
					resident, d.BytesRead, d.Reads, partBytes(absent...), len(absent))
			}
			if tc.learnable && d.BytesWritten == 0 {
				t.Fatal("ReadAll did not flush the dirty partitions")
			}
			if got := store.Resident(); !reflect.DeepEqual(got, resident) {
				t.Fatalf("ReadAll changed the buffer: resident %v, want %v", got, resident)
			}

			// The flush left the frames clean: a second ReadAll writes
			// nothing. A store opened cold over the same file holds
			// nothing and reads the whole table in one read.
			before = store.Stats().Snapshot()
			if _, err := store.ReadAll(); err != nil {
				t.Fatal(err)
			}
			if d := store.Stats().Snapshot().Sub(before); d.BytesWritten != 0 || d.BytesRead != partBytes(absent...) {
				t.Fatalf("second ReadAll: %+v", d)
			}
			coldCfg := DiskStoreConfig{Part: pt, Dim: dim, Capacity: c, Quant: tc.quant, ScalePath: scalePath}
			coldStore, err := OpenDiskNodeStore(coldCfg, path)
			if err != nil {
				t.Fatal(err)
			}
			defer coldStore.Close()
			cold, err := coldStore.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			d = coldStore.Stats().Snapshot()
			if d.BytesRead != partBytes(0, 1, 2, 3, 4) || d.Reads != 1 || d.BytesWritten != 0 {
				t.Fatalf("cold ReadAll: %+v, want %d bytes in one read", d, partBytes(0, 1, 2, 3, 4))
			}
			for i := range want.Data {
				w := math.Float32bits(want.Data[i])
				if math.Float32bits(warm.Data[i]) != w || math.Float32bits(cold.Data[i]) != w {
					t.Fatalf("element %d: warm %v, cold %v, want %v", i, warm.Data[i], cold.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestQuantMemoryStoreGathersDequant holds the quantized in-memory table
// to the float32 table it stands for: for fp16 and int8, a gather of
// repeated, unsorted ids returns the bytes a gather from q.Dequant()
// returns, and the table is never widened.
func TestQuantMemoryStoreGathersDequant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := tensor.New(50, 13)
	for i := range ref.Data {
		ref.Data[i] = float32(rng.NormFloat64())
	}
	ids := []int32{7, 0, 49, 7, 23, 3, 3, 48, 12, 0}
	for _, kind := range []tensor.QuantKind{tensor.QuantF16, tensor.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			q := tensor.Quantize(ref, kind)
			store := NewQuantMemoryNodeStore(q)
			if store.Dim() != ref.Cols || store.NumNodes() != ref.Rows || store.Table() != nil {
				t.Fatalf("store %dx%d (float32 table %v), want %dx%d kept quantized",
					store.NumNodes(), store.Dim(), store.Table() != nil, ref.Rows, ref.Cols)
			}
			got, want := tensor.New(len(ids), ref.Cols), tensor.New(len(ids), ref.Cols)
			if err := store.Gather(ids, got); err != nil {
				t.Fatal(err)
			}
			if err := NewMemoryNodeStore(q.Dequant(), false).Gather(ids, want); err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
					t.Fatalf("element %d (id %d): %v, want %v", i, ids[i/ref.Cols], got.Data[i], w)
				}
			}
		})
	}
}

// TestQuantMemoryStoreRefusesWrites pins that an in-memory table without
// optimizer state, quantized or a fixed float32 one, is read-only by one
// rule: ApplyGrads and Restore fail with the same error and change no
// byte, and Snapshot carries no accumulators.
func TestQuantMemoryStoreRefusesWrites(t *testing.T) {
	ref := tensor.New(4, 3)
	for i := range ref.Data {
		ref.Data[i] = float32(i) / 7
	}
	grads := tensor.New(1, 3)
	grads.Fill(1)
	var readOnly error
	for _, kind := range []tensor.QuantKind{tensor.QuantF16, tensor.QuantI8, tensor.QuantNone} {
		store := NewMemoryNodeStore(ref.Clone(), false)
		if kind != tensor.QuantNone {
			store = NewQuantMemoryNodeStore(tensor.Quantize(ref, kind))
		}
		before, _, _ := store.Snapshot()
		err := store.ApplyGrads([]int32{1}, grads, nn.NewSparseAdaGrad(0.1))
		if readOnly == nil {
			readOnly = err
		}
		if err == nil || err != readOnly {
			t.Errorf("%v: ApplyGrads = %v, want the read-only error %v", kind, err, readOnly)
		}
		if err := store.Restore(ref, nil); err == nil || err != readOnly {
			t.Errorf("%v: Restore = %v, want the read-only error %v", kind, err, readOnly)
		}
		after, state, err := store.Snapshot()
		if err != nil || state != nil || !reflect.DeepEqual(after, before) {
			t.Errorf("%v: a refused write changed the table, or Snapshot carries accumulators (%v, %v)", kind, state, err)
		}
	}
}

// openQuantStore writes ref quantized to kind, as ingest would, and opens
// it as a read-only paged store; it also returns the quantized table.
func openQuantStore(dir string, pt partition.Partitioning, ref *tensor.Tensor, kind tensor.QuantKind, c int) (*DiskNodeStore, *tensor.QTable, error) {
	q := tensor.Quantize(ref, kind)
	path := filepath.Join(dir, "features.bin")
	if err := os.WriteFile(path, q.Raw, 0o644); err != nil {
		return nil, nil, err
	}
	cfg := DiskStoreConfig{Part: pt, Dim: ref.Cols, Capacity: c, Quant: kind}
	if kind == tensor.QuantI8 {
		pairs := make([]byte, 8*len(q.Scale))
		for i := range q.Scale {
			binary.LittleEndian.PutUint32(pairs[8*i:], math.Float32bits(q.Scale[i]))
			binary.LittleEndian.PutUint32(pairs[8*i+4:], math.Float32bits(q.Zero[i]))
		}
		cfg.ScalePath = filepath.Join(dir, "scales.bin")
		if err := os.WriteFile(cfg.ScalePath, pairs, 0o644); err != nil {
			return nil, nil, err
		}
	}
	store, err := OpenDiskNodeStore(cfg, path)
	return store, q, err
}

func TestEdgeStoreDiskMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	const n, p = 100, 5
	pt := partition.New(n, p)
	edges := make([]graph.Edge, 500)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(3)), Dst: int32(rng.Intn(n))}
	}
	mem := NewMemoryEdgeStore(pt, edges)
	disk, err := CreateDiskEdgeStoreFS(nil, dir, pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			a, _ := mem.ReadBucket(i, j, nil)
			b, err := disk.ReadBucket(i, j, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("bucket (%d,%d): %d vs %d edges", i, j, len(a), len(b))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("bucket (%d,%d) edge %d differs", i, j, k)
				}
			}
			if mem.BucketLen(i, j) != disk.BucketLen(i, j) {
				t.Fatal("BucketLen mismatch")
			}
		}
	}
}

// TestDiskReadBucketSteadyStateAllocs: reading a bucket into a dst that is
// already large enough takes its byte image from the read-buffer pool, not
// the heap, and still counts as exactly one read of the bucket's bytes.
func TestDiskReadBucketSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 100
	pt := partition.New(n, 2)
	edges := make([]graph.Edge, 4000)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(3)), Dst: int32(rng.Intn(n))}
	}
	disk, err := CreateDiskEdgeStoreFS(nil, t.TempDir(), pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	want := NewMemoryEdgeStore(pt, edges)
	dst := make([]graph.Edge, 0, len(edges))
	read := func() {
		if dst, err = disk.ReadBucket(0, 1, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the pool
	before := disk.Stats().Snapshot()
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Fatalf("steady-state ReadBucket allocates %v times per call, want 0", allocs)
	}
	after := disk.Stats().Snapshot()
	if reads, bytes := after.Reads-before.Reads, after.BytesRead-before.BytesRead; reads != 51 || bytes != 51*int64(len(dst))*EdgeBytes {
		t.Fatalf("51 calls counted %d reads of %d bytes, want 51 of %d", reads, bytes, 51*len(dst)*EdgeBytes)
	}
	if exp, _ := want.ReadBucket(0, 1, nil); !reflect.DeepEqual(dst, exp) {
		t.Fatal("pooled read decoded different edges than the in-memory store holds")
	}
}

// TestDiskWriteBackSteadyStateAllocs: writing a partition back (its rows
// and its accumulators) takes each byte image from the pool reads use,
// not the heap, and still counts two writes of the partition's bytes.
func TestDiskWriteBackSteadyStateAllocs(t *testing.T) {
	const n, dim, p = 4000, 64, 4
	s := newLearnableStore(t, n, dim, p, 2, []int{0})
	region := s.frame(0)
	var err error
	write := func() {
		if err = s.partitionIO(0, region, true); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the pool
	before := s.Stats().Snapshot()
	if allocs := testing.AllocsPerRun(50, write); allocs != 0 && !raceEnabled {
		t.Fatalf("steady-state write-back allocates %v times per call, want 0", allocs)
	}
	d := s.Stats().Snapshot().Sub(before)
	if rows := int64(n / p); d.Writes != 2*51 || d.BytesWritten != 51*rows*(dim+1)*4 {
		t.Fatalf("51 write-backs counted %d writes of %d bytes, want %d of %d", d.Writes, d.BytesWritten, 2*51, 51*rows*(dim+1)*4)
	}
}

func TestEdgeStoreStatsUnified(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	const n, p = 60, 3
	pt := partition.New(n, p)
	edges := make([]graph.Edge, 200)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	disk, err := CreateDiskEdgeStoreFS(nil, dir, pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	// Both backends satisfy the interface and expose identical counters
	// for identical access patterns: one non-empty ReadBucket accounts
	// one read of len(bucket)*12 bytes on either store (empty buckets
	// are skipped by both).
	var snaps []StatsSnapshot
	for _, store := range []EdgeStore{NewMemoryEdgeStore(pt, edges), disk} {
		var buf []graph.Edge
		var want int64
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				buf = buf[:0] // documented reuse pattern
				buf, err = store.ReadBucket(i, j, buf)
				if err != nil {
					t.Fatal(err)
				}
				if store.BucketLen(i, j) > 0 {
					want += int64(store.BucketLen(i, j)) * edgeBytes
				}
			}
		}
		snap := store.Stats().Snapshot()
		if snap.BytesRead != want {
			t.Fatalf("%T: bytes read %d, want %d", store, snap.BytesRead, want)
		}
		if snap.Reads == 0 {
			t.Fatalf("%T: no reads counted", store)
		}
		snaps = append(snaps, snap)
	}
	if snaps[0].Reads != snaps[1].Reads || snaps[0].BytesRead != snaps[1].BytesRead {
		t.Fatalf("backends diverge: memory %+v vs disk %+v", snaps[0], snaps[1])
	}
}

// TestPrefetchHitMissCountersAndStagingPool: a partition a LoadSet
// admits counts as a hit when a frame already holds it and as a miss when
// LoadSet waits for its read, and the store's partition memory is its
// min(2c+1, p) frames (2c held and a landing frame), however many sets it
// loads.
func TestPrefetchHitMissCountersAndStagingPool(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 80, 6, 8, 3
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Initial fill outside a plan: all misses.
	if err := store.LoadSet([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := store.Stats().Snapshot()
	if snap.PrefetchMisses != 3 || snap.PrefetchHits != 0 {
		t.Fatalf("initial fill: hits=%d misses=%d, want 0/3", snap.PrefetchHits, snap.PrefetchMisses)
	}

	// A plan's reads land before its sets are loaded (waitIdle): every
	// admitted partition is a hit, and one the previous set held counts
	// as neither.
	store.Plan([][]int{{2, 4, 5}, {6, 7, 0}})
	waitIdle(store)
	if d := store.Stats().Snapshot().Sub(snap); d.Reads != 4 {
		t.Fatalf("the plan read %d partitions, want 4", d.Reads)
	}
	for _, step := range []struct {
		set  []int
		hits int64
	}{{[]int{2, 4, 5}, 2}, {[]int{6, 7, 0}, 3}} {
		before := store.Stats().Snapshot()
		if err := store.LoadSet(step.set); err != nil {
			t.Fatal(err)
		}
		if d := store.Stats().Snapshot().Sub(before); d.PrefetchHits != step.hits || d.PrefetchMisses != 0 || d.Reads != 0 {
			t.Fatalf("LoadSet(%v): hits=%d misses=%d reads=%d, want %d/0/0",
				step.set, d.PrefetchHits, d.PrefetchMisses, d.Reads, step.hits)
		}
	}

	// Loading held partitions reads nothing.
	before := store.Stats().Snapshot()
	if err := store.LoadSet([]int{2, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if d := store.Stats().Snapshot().Sub(before); d.Reads != 0 {
		t.Fatalf("loading held partitions read %d times", d.Reads)
	}

	// Rotating every partition through the store leaves its memory at
	// min(2c+1, p) frames.
	for round := 0; round < 5; round++ {
		a, b := (round*2)%p, (round*2+1)%p
		store.Plan([][]int{{a, b}, {(a + 3) % p}})
		if err := store.LoadSet([]int{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	if len(store.frames) != min(2*c+1, p)*store.stride {
		t.Fatalf("store holds %d floats of partition memory, want min(2c+1, p) frames of %d", len(store.frames), store.stride)
	}
}

// TestStaleStagedEntryDroppedOnEvict: a dirty partition whose frame a
// plan reuses is written back before the read into that frame starts, and
// a later read of it returns the update, never the bytes the disk held
// before it.
func TestStaleStagedEntryDroppedOnEvict(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 40, 4, 4, 1
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
		Throttle: NewThrottle(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opt := nn.NewSparseAdaGrad(1.0)
	grads := tensor.New(1, dim)
	grads.Fill(1)
	for round := 0; round < 3; round++ {
		// Two frames: visit 2 needs partition 0's frame (its next use is
		// the furthest), so 0 is written back and read again at visit 4.
		sets := [][]int{{0}, {1}, {2}, {1}, {0}}
		store.Plan(sets)
		var updated *tensor.Tensor
		for vi, set := range sets {
			if err := store.LoadSet(set); err != nil {
				t.Fatal(err)
			}
			id := int32(set[0] * 10)
			if vi == 0 {
				if err := store.ApplyGrads([]int32{id}, grads, opt); err != nil {
					t.Fatal(err)
				}
				updated = tensor.New(1, dim)
				if err := store.Gather([]int32{id}, updated); err != nil {
					t.Fatal(err)
				}
			}
		}
		back := tensor.New(1, dim)
		if err := store.Gather([]int32{0}, back); err != nil {
			t.Fatal(err)
		}
		if !updated.Equal(back, 0) {
			t.Fatalf("round %d: stale data resurfaced: %v vs %v", round, updated, back)
		}
	}
}

func TestThrottleEnforcesBandwidth(t *testing.T) {
	th := NewThrottle(1 << 20) // 1 MiB/s
	start := time.Now()
	th.Wait(1 << 18) // 256 KiB => 250ms
	elapsed := time.Since(start)
	if elapsed < 200*time.Millisecond {
		t.Fatalf("throttle too fast: %v", elapsed)
	}
}

// TestWriteBehindReadsBeforeRelease: a swap whose victim the previous
// visit still computes on does not wait for it. Over P = 3, c = 1 (two
// partitions held and a landing frame) the plan {0} {1} {2} {0} evicts
// partition 1, which visit 1 pins, for visit 2's read: that read starts,
// and lands, before LoadSet(2) is called, while partition 1 is written
// back only after LoadSet(2) releases it; every row survives.
func TestWriteBehindReadsBeforeRelease(t *testing.T) {
	const partBytes = 10 * 4 * 4 // PartSize 10 × dim 4 × 4 bytes
	started := make(chan struct{}, 1)
	var pinned atomic.Bool // visit 1 may be computing on partition 1
	var early atomic.Int64
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: t.TempDir(), Part: partition.New(30, 3), Dim: 4, Capacity: 1, Learnable: true,
		Init: func(id int32, row []float32) {
			for j := range row {
				row[j] = float32(id)
			}
		},
		FS: toggleFS{inner: fault.OS, fail: new(atomic.Bool),
			onRead: func(name string, off int64) {
				if filepath.Base(name) == "nodes.bin" && off == 2*partBytes {
					select {
					case started <- struct{}{}:
					default:
					}
				}
			},
			onWrite: func(name string, off int64) {
				if filepath.Base(name) == "nodes.bin" && off == partBytes && pinned.Load() {
					early.Add(1)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sets := [][]int{{0}, {1}, {2}, {0}}
	store.Plan(sets)
	for _, set := range sets[:2] {
		if err := store.LoadSet(set); err != nil {
			t.Fatal(err)
		}
	}
	pinned.Store(true)
	bump(t, store, 10)
	want := gatherRows(t, store, 10)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("visit 2's read did not start while visit 1 pinned its victim")
	}
	store.mu.Lock()
	for !store.b.parts[2].held() { // the read lands in the landing frame
		store.ioDone.Wait()
	}
	store.mu.Unlock()
	pinned.Store(false)
	before := store.Stats().Snapshot()
	if err := store.LoadSet(sets[2]); err != nil {
		t.Fatal(err)
	}
	if d := store.Stats().Snapshot().Sub(before); d.PrefetchHits != 1 || d.PrefetchMisses != 0 {
		t.Fatalf("LoadSet(%v) counted %d hits and %d misses, want its read landed before it", sets[2], d.PrefetchHits, d.PrefetchMisses)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("partition 1 was written back %d times while visit 1 pinned it", n)
	}
	if err := store.LoadSet(sets[3]); err != nil {
		t.Fatal(err)
	}
	store.Plan(nil)
	if err := store.LoadSet([]int{1}); err != nil {
		t.Fatal(err)
	}
	if got := gatherRows(t, store, 10); !slices.Equal(got, want) {
		t.Fatalf("partition 1 came back as %v, want %v", got, want)
	}
}

// TestRestoreReadsNothing: Restore copies the restored rows and
// accumulators into every held frame, dirty or clean, pinned or not,
// instead of reading them back: it reads no byte, and the frames then
// equal the restored table and state.
func TestRestoreReadsNothing(t *testing.T) {
	const n, dim, p, c = 60, 4, 6, 2
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: t.TempDir(), Part: pt, Dim: dim, Capacity: c, Learnable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, set := range [][]int{{0, 1}, {2, 3}, {3, 4}} {
		if err := store.LoadSet(set); err != nil {
			t.Fatal(err)
		}
		bump(t, store, int32(set[0]*10), int32(set[1]*10+9))
	}
	rng := rand.New(rand.NewSource(11))
	table := tensor.New(n, dim)
	table.RandNormal(rng, 1)
	state := make([]float32, n)
	for i := range state {
		state[i] = rng.Float32()
	}
	before := store.Stats().Snapshot()
	if err := store.Restore(table, state); err != nil {
		t.Fatal(err)
	}
	if d := store.Stats().Snapshot().Sub(before); d.BytesRead != 0 || d.Reads != 0 {
		t.Fatalf("Restore read %d bytes in %d reads, want none", d.BytesRead, d.Reads)
	}
	held := 0
	for q, st := range store.b.parts {
		if !st.held() {
			continue
		}
		held++
		lo, hi := pt.Range(q)
		region := store.frame(st.frame)
		if !slices.Equal(region[:int(hi-lo)*dim], table.Data[int(lo)*dim:int(hi)*dim]) ||
			!slices.Equal(region[pt.PartSize*dim:][:hi-lo], state[lo:hi]) {
			t.Fatalf("partition %d's frame differs from the restored table and state", q)
		}
	}
	if held < 2*c {
		t.Fatalf("%d partitions held, want the test to cover %d", held, 2*c)
	}
	got, gotState, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Data, table.Data) || !slices.Equal(gotState, state) {
		t.Fatal("snapshot after Restore differs from the restored table and state")
	}
}
