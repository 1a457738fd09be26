package storage

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func fragTestEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(3)), Dst: int32(rng.Intn(n))}
	}
	return edges
}

// frag looks bucket (i, j)'s fragment up on its own.
func frag(fc *FragCache, i, j int) (*graph.BucketFrag, error) {
	fs, err := fc.Frags([][2]int32{{int32(i), int32(j)}}, nil)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

func TestFragCacheServesHitsWithoutRereads(t *testing.T) {
	edges := fragTestEdges(100, 2000, 1)
	pt := partition.New(100, 4)
	es := NewMemoryEdgeStore(pt, edges)
	fc := NewFragCache(es, pt, 16)

	f1, err := frag(fc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	reads := es.Stats().Snapshot().Reads
	f2, err := frag(fc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f1 {
		t.Fatal("cache hit returned a different fragment")
	}
	if got := es.Stats().Snapshot().Reads; got != reads {
		t.Fatalf("cache hit re-read the store (%d -> %d reads)", reads, got)
	}
	hits, misses := fc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

func TestFragCacheEvictsLRU(t *testing.T) {
	edges := fragTestEdges(100, 2000, 2)
	pt := partition.New(100, 4)
	fc := NewFragCache(NewMemoryEdgeStore(pt, edges), pt, 2)

	mustFrag := func(i, j int) *graph.BucketFrag {
		t.Helper()
		f, err := frag(fc, i, j)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f00 := mustFrag(0, 0)
	mustFrag(1, 1)
	mustFrag(0, 0) // refresh (0,0): (1,1) is now LRU
	mustFrag(2, 2) // evicts (1,1)
	if fc.Len() != 2 {
		t.Fatalf("cache holds %d fragments, want 2", fc.Len())
	}
	if got := mustFrag(0, 0); got != f00 {
		t.Fatal("recently-used fragment was evicted")
	}
	_, missesBefore := fc.Stats()
	mustFrag(1, 1) // must rebuild
	if _, misses := fc.Stats(); misses != missesBefore+1 {
		t.Fatal("evicted fragment served without a rebuild")
	}
}

// TestFragCacheConcurrentEviction hammers a small cache from concurrent
// goroutines — the pipelined access pattern, where the prefetcher builds
// fragments for upcoming visits while trainer-side samplers pull them —
// and checks the two contracts that make that safe: hit+miss counters
// exactly account for every request, and fragments stay immutable (and
// correct) after the cache evicts them.
func TestFragCacheConcurrentEviction(t *testing.T) {
	const (
		numNodes   = 120
		parts      = 6
		goroutines = 8
		iters      = 500
	)
	edges := fragTestEdges(numNodes, 4000, 7)
	pt := partition.New(numNodes, parts)
	es := NewMemoryEdgeStore(pt, edges)
	fc := NewFragCache(es, pt, 4) // far below p², so eviction is constant

	// A view over partitions {0,1} holds fragment pointers that the storm
	// below will certainly evict from the cache.
	view, err := graph.NewSegmented(fc).Swap([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	neighbors := func(ix graph.Index) [][]int32 {
		var out [][]int32
		for p := 0; p < 2; p++ {
			lo, hi := pt.Range(p)
			for v := lo; v < hi; v++ {
				out = append(out, ix.AppendOutNeighbors(nil, v), ix.AppendInNeighbors(nil, v))
			}
		}
		return out
	}
	before := neighbors(view)

	hits0, misses0 := fc.Stats()
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < iters; k++ {
				if _, err := frag(fc, rng.Intn(parts), rng.Intn(parts)); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g) + 100)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	hits, misses := fc.Stats()
	if got := (hits - hits0) + (misses - misses0); got != goroutines*iters {
		t.Fatalf("hit+miss counters account for %d requests, want %d", got, goroutines*iters)
	}
	if fc.Len() > 4 {
		t.Fatalf("cache holds %d fragments, capacity 4", fc.Len())
	}

	// The pre-storm view must still enumerate exactly what a fresh build
	// does: eviction only drops the cache's reference, never the
	// fragment's contents.
	fresh, err := graph.NewSegmented(NewFragCache(es, pt, parts*parts)).Swap([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	after, want := neighbors(view), neighbors(fresh)
	for i := range want {
		if len(after[i]) != len(want[i]) || len(before[i]) != len(want[i]) {
			t.Fatalf("neighbor list %d changed length after eviction: before %d, after %d, fresh %d",
				i, len(before[i]), len(after[i]), len(want[i]))
		}
		for k := range want[i] {
			if after[i][k] != want[i][k] || before[i][k] != want[i][k] {
				t.Fatalf("neighbor list %d mutated after eviction", i)
			}
		}
	}
}

func TestFragCacheMatchesBucketsOnDisk(t *testing.T) {
	edges := fragTestEdges(120, 3000, 3)
	pt := partition.New(120, 5)
	es, err := CreateDiskEdgeStoreFS(nil, t.TempDir(), pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	fc := NewFragCache(es, pt, pt.NumPartitions*pt.NumPartitions)

	for i := 0; i < pt.NumPartitions; i++ {
		for j := 0; j < pt.NumPartitions; j++ {
			f, err := frag(fc, i, j)
			if err != nil {
				t.Fatal(err)
			}
			bucket, err := es.ReadBucket(i, j, nil)
			if err != nil {
				t.Fatal(err)
			}
			if f.NumEdges() != len(bucket) {
				t.Fatalf("frag (%d,%d) has %d edges, bucket %d", i, j, f.NumEdges(), len(bucket))
			}
		}
	}
}

// recordWaits records each transfer a store charges to its throttle.
type recordWaits struct {
	mu sync.Mutex
	n  []int
}

func (r *recordWaits) Wait(n int) {
	r.mu.Lock()
	r.n = append(r.n, n)
	r.mu.Unlock()
}

// TestDiskEdgeStoreReadBucketsChargesOneWait: ReadBuckets returns what
// ReadBucket returns bucket by bucket, each non-empty bucket still its
// own read and Stats entry, and charges the throttle exactly their summed
// bytes, in one Wait. ReadAllEdges is one such request over every bucket
// in (i, j) order: the whole file in one Wait.
func TestDiskEdgeStoreReadBucketsChargesOneWait(t *testing.T) {
	pt := partition.New(90, 3)
	var edges []graph.Edge
	for _, e := range fragTestEdges(90, 3000, 8) {
		if pt.Of(e.Src) != 1 || pt.Of(e.Dst) != 1 { // bucket (1,1) stays empty
			edges = append(edges, e)
		}
	}
	disk, err := CreateDiskEdgeStoreFS(nil, t.TempDir(), pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	rec := &recordWaits{}
	disk.throttle = rec
	mem := NewMemoryEdgeStore(pt, edges)
	buckets := [][2]int32{{0, 1}, {1, 1}, {2, 2}, {1, 0}, {0, 1}}
	var want []graph.Edge
	var reads, bytes int64
	for _, b := range buckets {
		if n := mem.BucketLen(int(b[0]), int(b[1])); n > 0 {
			reads, bytes = reads+1, bytes+int64(n)*EdgeBytes
		}
		want, _ = mem.ReadBucket(int(b[0]), int(b[1]), want)
	}
	before := disk.Stats().Snapshot()
	got, err := disk.ReadBuckets(buckets, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := disk.Stats().Snapshot().Sub(before)
	switch {
	case !slices.Equal(got, want):
		t.Fatal("ReadBuckets returned other edges than ReadBucket one by one")
	case d.Reads != reads || d.BytesRead != bytes:
		t.Fatalf("counted %d reads of %d bytes, want %d of %d", d.Reads, d.BytesRead, reads, bytes)
	case !slices.Equal(rec.n, []int{int(bytes)}):
		t.Fatalf("throttle charged %v, want one Wait of %d bytes", rec.n, bytes)
	}

	want, reads, bytes = nil, 0, 0
	for i := range pt.NumPartitions {
		for j := range pt.NumPartitions {
			if n := mem.BucketLen(i, j); n > 0 {
				reads, bytes = reads+1, bytes+int64(n)*EdgeBytes
			}
			want, _ = mem.ReadBucket(i, j, want)
		}
	}
	rec.n = nil
	before = disk.Stats().Snapshot()
	if got, err = ReadAllEdges(disk); err != nil {
		t.Fatal(err)
	}
	d = disk.Stats().Snapshot().Sub(before)
	switch {
	case !slices.Equal(got, want):
		t.Fatal("ReadAllEdges returned other edges than ReadBucket in (i, j) order")
	case d.Reads != reads || d.BytesRead != bytes || bytes != int64(len(edges))*EdgeBytes:
		t.Fatalf("ReadAllEdges counted %d reads of %d bytes, want %d of %d (the file)", d.Reads, d.BytesRead, reads, bytes)
	case !slices.Equal(rec.n, []int{int(bytes)}):
		t.Fatalf("ReadAllEdges charged %v, want one Wait of %d bytes", rec.n, bytes)
	}
}

// oneByOne looks each bucket of a Frags call up on its own: the
// per-bucket reference a batched lookup must count the same as.
type oneByOne struct{ *FragCache }

func (o oneByOne) Frags(buckets [][2]int32, dst []*graph.BucketFrag) ([]*graph.BucketFrag, error) {
	for _, b := range buckets {
		var err error
		if dst, err = o.FragCache.Frags([][2]int32{b}, dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// TestSwapReadsMissesAsOneRequest: a view's Swap reads the buckets of the
// fragments it lacks and the cache does not hold as one throttled
// request, the bytes per-bucket lookups read; it builds the same view as
// they do, and the cache counts the same hits and misses — with a cache
// small enough that a swap's own misses evict fragments it looks up
// later.
func TestSwapReadsMissesAsOneRequest(t *testing.T) {
	edges := fragTestEdges(120, 4000, 9)
	pt := partition.New(120, 4)
	disk, err := CreateDiskEdgeStoreFS(nil, t.TempDir(), pt, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	rec := &recordWaits{}
	disk.throttle = rec
	mem := NewMemoryEdgeStore(pt, edges)
	batched, plain := NewFragCache(disk, pt, 8), NewFragCache(mem, pt, 8)
	bv, pv := graph.NewSegmented(batched), graph.NewSegmented(oneByOne{plain})
	if _, err := frag(batched, 3, 3); err != nil { // cached, so not read again
		t.Fatal(err)
	}
	if _, err := frag(plain, 3, 3); err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]int{{0, 1, 3}, {1, 2, 3}, {0, 2, 3}, {0, 1, 2}} {
		rec.n = nil
		before := mem.Stats().Snapshot().BytesRead
		if bv, err = bv.Swap(set); err != nil {
			t.Fatal(err)
		}
		if pv, err = pv.Swap(set); err != nil {
			t.Fatal(err)
		}
		if bytes := int(mem.Stats().Snapshot().BytesRead - before); !slices.Equal(rec.n, []int{bytes}) {
			t.Fatalf("%v: throttle charged %v, want one Wait of the %d bytes per-bucket lookups read", set, rec.n, bytes)
		}
		for _, p := range set {
			lo, hi := pt.Range(p)
			for v := lo; v < hi; v++ {
				if !slices.Equal(bv.AppendOutNeighbors(nil, v), pv.AppendOutNeighbors(nil, v)) ||
					!slices.Equal(bv.AppendInNeighbors(nil, v), pv.AppendInNeighbors(nil, v)) {
					t.Fatalf("%v: node %d's neighbors differ from the per-bucket view's", set, v)
				}
			}
		}
		bh, bm := batched.Stats()
		ph, pm := plain.Stats()
		if bh != ph || bm != pm || batched.Len() != plain.Len() {
			t.Fatalf("%v: hits/misses %d/%d holding %d, per-bucket lookups %d/%d holding %d", set, bh, bm, batched.Len(), ph, pm, plain.Len())
		}
	}
}

// failingEdges fails every ReadBuckets while fail is set.
type failingEdges struct {
	EdgeStore
	fail bool
}

func (f *failingEdges) ReadBuckets(buckets [][2]int32, dst []graph.Edge) ([]graph.Edge, error) {
	if f.fail {
		return dst, errors.New("injected read failure")
	}
	return f.EdgeStore.ReadBuckets(buckets, dst)
}

// TestFragsFailedReadCachesNothing: a Frags call whose read fails caches
// none of the fragments it was to build, so the next call reads them
// again and returns them whole; the fragments it hit stay cached.
func TestFragsFailedReadCachesNothing(t *testing.T) {
	edges := fragTestEdges(100, 2000, 5)
	pt := partition.New(100, 4)
	es := &failingEdges{EdgeStore: NewMemoryEdgeStore(pt, edges)}
	fc := NewFragCache(es, pt, 16)
	if _, err := frag(fc, 0, 0); err != nil {
		t.Fatal(err)
	}
	buckets := [][2]int32{{0, 0}, {0, 1}, {1, 0}}
	es.fail = true
	if _, err := fc.Frags(buckets, nil); err == nil {
		t.Fatal("failed read returned no error")
	}
	if fc.Len() != 1 {
		t.Fatalf("cache holds %d fragments after a failed read, want the 1 it had", fc.Len())
	}
	es.fail = false
	fs, err := fc.Frags(buckets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range buckets {
		if fs[k] == nil || fs[k].NumEdges() != es.BucketLen(int(b[0]), int(b[1])) {
			t.Fatalf("bucket %v: fragment %v after the retry", b, fs[k])
		}
	}
}
