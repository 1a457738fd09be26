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

func TestDiskNodeStorePrefetchMatchesDirectLoad(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 80, 6, 8, 3
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{
		Dir: dir, Part: pt, Dim: dim, Capacity: c,
		Init: func(id int32, row []float32) { row[0] = float32(id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := store.LoadSet([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	store.Prefetch([]int{5, 6})
	if err := store.LoadSet([]int{5, 6, 2}); err != nil {
		t.Fatal(err)
	}
	out := tensor.New(1, dim)
	if err := store.Gather([]int32{55}, out); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 55 {
		t.Fatalf("prefetched data wrong: %v", out.At(0, 0))
	}
	res := store.Resident()
	if len(res) != 3 || res[0] != 2 || res[1] != 5 || res[2] != 6 {
		t.Fatalf("resident = %v", res)
	}
}

// TestDiskMatchesMemoryStoreUnderRandomOps drives a disk store and a
// memory store through the same random updates while another goroutine
// prefetches. With a buffer smaller than the table it also swaps and
// toggles a full disk: a LoadSet that reports a failed write-back is
// followed by a Flush once the disk recovers, and every update must
// survive.
func TestDiskMatchesMemoryStoreUnderRandomOps(t *testing.T) {
	for _, c := range []int{5, 3, 2} {
		t.Run(fmt.Sprintf("capacity=%d", c), func(t *testing.T) {
			const n, dim, p = 50, 4, 5
			pt := partition.New(n, p)
			table := tensor.New(n, dim)
			rng := rand.New(rand.NewSource(int64(c)))
			table.RandNormal(rng, 1)
			memStore := NewMemoryNodeStore(table.Clone())
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

			// A second goroutine prefetches throughout, as the pipeline's
			// loader does while the trainer swaps and updates.
			stop, prefetched := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(prefetched)
				prng := rand.New(rand.NewSource(int64(-c)))
				for {
					select {
					case <-stop:
						return
					default:
						diskStore.Prefetch(prng.Perm(p)[:prng.Intn(c)+1])
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			optM := nn.NewSparseAdaGrad(0.1)
			optD := nn.NewSparseAdaGrad(0.1)
			failures := 0
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r < 2:
					diskStore.Prefetch(rng.Perm(p)[:rng.Intn(c)+1])
				case r < 3 && c < p:
					failing.Store(rng.Intn(3) == 0)
				case r < 5:
					set := rng.Perm(p)[:c]
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
			close(stop)
			<-prefetched
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
	const n, dim, p, c = 40, 4, 4, 2
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.LoadSet([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	snap := store.Stats().Snapshot()
	perPart := int64(pt.PartSize * dim * 4)
	if snap.BytesRead != 2*perPart {
		t.Fatalf("bytes read = %d, want %d", snap.BytesRead, 2*perPart)
	}
	if err := store.LoadSet([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	snap2 := store.Stats().Snapshot().Sub(snap)
	if snap2.BytesRead != perPart || snap2.Swaps != 1 {
		t.Fatalf("after swap: %+v", snap2)
	}
}

// ReadAll copies resident partitions from their slots and reads only the
// absent ones, one read per run of them: the table is bit-identical to a
// cold read (nothing resident) for float32, fp16 and int8 tables and for a
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
			if tc.quant == tensor.QuantNone {
				store, err = CreateDiskNodeStore(DiskStoreConfig{
					Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: tc.learnable, Init: initRef,
				})
			} else {
				var q *tensor.QTable
				store, q, err = openQuantStore(dir, pt, ref, tc.quant, c)
				want = tensor.RefDequant(q)
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
				mem := NewMemoryNodeStore(ref.Clone())
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

			// Evicting everything writes nothing (the flush left the slots
			// clean); the next ReadAll is a cold read of the whole table.
			if err := store.LoadSet(nil); err != nil {
				t.Fatal(err)
			}
			before = store.Stats().Snapshot()
			cold, err := store.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			d = store.Stats().Snapshot().Sub(before)
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
	disk, err := CreateDiskEdgeStore(dir, pt, edges, nil)
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
	disk, err := CreateDiskEdgeStore(t.TempDir(), pt, edges, nil)
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

func TestEdgeStoreStatsUnified(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	const n, p = 60, 3
	pt := partition.New(n, p)
	edges := make([]graph.Edge, 200)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	disk, err := CreateDiskEdgeStore(dir, pt, edges, nil)
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

func TestPrefetchHitMissCountersAndStagingPool(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 80, 6, 8, 3
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Initial fill with nothing staged: all misses.
	if err := store.LoadSet([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := store.Stats().Snapshot()
	if snap.PrefetchMisses != 3 || snap.PrefetchHits != 0 {
		t.Fatalf("initial fill: hits=%d misses=%d, want 0/3", snap.PrefetchHits, snap.PrefetchMisses)
	}

	// Completed prefetches count as hits when consumed (a load that
	// blocks on a still-in-flight staged read would count as a miss, so
	// let the staging reads land first: Flush waits for every IO in
	// flight).
	store.Prefetch([]int{4, 5})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.LoadSet([]int{2, 4, 5}); err != nil {
		t.Fatal(err)
	}
	d := store.Stats().Snapshot().Sub(snap)
	if d.PrefetchHits != 2 || d.PrefetchMisses != 0 {
		t.Fatalf("after prefetch: hits=%d misses=%d, want 2/0", d.PrefetchHits, d.PrefetchMisses)
	}

	// Prefetching resident partitions reads nothing.
	before := store.Stats().Snapshot()
	store.Prefetch([]int{2, 4, 5})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := store.Stats().Snapshot().Sub(before); d.Reads != 0 {
		t.Fatalf("prefetching resident partitions read %d times", d.Reads)
	}

	// The staging buffers were recycled: further prefetch cycles must not
	// grow the pool beyond capacity.
	for round := 0; round < 5; round++ {
		a, b := (round*2)%p, (round*2+1)%p
		store.Prefetch([]int{a, b})
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := store.LoadSet([]int{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	store.mu.Lock()
	poolLen := len(store.pool)
	store.mu.Unlock()
	if poolLen == 0 {
		t.Fatal("staging pool never recycled a buffer")
	}
	if poolLen > c {
		t.Fatalf("staging pool grew to %d buffers, capacity is %d", poolLen, c)
	}
}

// A prefetch of a resident partition must never be consumed after a
// dirty eviction wrote newer bytes, nor may a prefetch racing the
// write-back read the disk before it lands.
func TestStaleStagedEntryDroppedOnEvict(t *testing.T) {
	dir := t.TempDir()
	const n, dim, p, c = 40, 4, 4, 2
	pt := partition.New(n, p)
	store, err := CreateDiskNodeStore(DiskStoreConfig{Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
		Throttle: NewThrottle(1 << 20)})
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
	for round := 0; round < 3; round++ {
		// Stage partition 0 while it is resident (a prefetcher racing
		// LoadSet), then dirty it.
		store.Prefetch([]int{0})
		if err := store.ApplyGrads([]int32{0}, grads, opt); err != nil {
			t.Fatal(err)
		}
		updated := tensor.New(1, dim)
		if err := store.Gather([]int32{0}, updated); err != nil {
			t.Fatal(err)
		}
		// Evict 0 (a throttled write-back), prefetch it while the write
		// is in flight, and bring it back: neither the pre-update bytes
		// staged above nor those still on disk may resurface.
		if err := store.LoadSet([]int{2, 3}); err != nil {
			t.Fatal(err)
		}
		store.Prefetch([]int{0, 1})
		if err := store.LoadSet([]int{0, 1}); err != nil {
			t.Fatal(err)
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
