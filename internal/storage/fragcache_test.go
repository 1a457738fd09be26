package storage

import (
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

func TestFragCacheServesHitsWithoutRereads(t *testing.T) {
	edges := fragTestEdges(100, 2000, 1)
	pt := partition.New(100, 4)
	es := NewMemoryEdgeStore(pt, edges)
	fc := NewFragCache(es, pt, 16)

	f1, err := fc.Frag(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	reads := es.Stats().Snapshot().Reads
	f2, err := fc.Frag(1, 2)
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
		f, err := fc.Frag(i, j)
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
				if _, err := fc.Frag(rng.Intn(parts), rng.Intn(parts)); err != nil {
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
			f, err := fc.Frag(i, j)
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
// bytes, in one Wait.
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
}

// TestFragCacheFetchIsOneRequest: a loader's Fetch reads the buckets of
// the fragments the next view lacks and the cache does not hold, with the
// visit's training buckets, as one throttled request; the Swap after it
// reads nothing, builds the same view as per-bucket lookups do, and the
// cache counts the same hits and misses.
func TestFragCacheFetchIsOneRequest(t *testing.T) {
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
	fetched, plain := NewFragCache(disk, pt, 16), NewFragCache(mem, pt, 16)
	fv, pv := graph.NewSegmented(fetched), graph.NewSegmented(plain)
	if _, err := fetched.Frag(3, 3); err != nil { // cached, so not read again
		t.Fatal(err)
	}
	if _, err := plain.Frag(3, 3); err != nil {
		t.Fatal(err)
	}
	train := [][2]int32{{1, 2}, {2, 1}}
	for _, set := range [][]int{{0, 1}, {1, 2}, {2, 3}} {
		lacks := fv.Lacks(nil, set)
		var bytes int
		for _, b := range lacks {
			if _, ok := fetched.frags[pt.BucketID(int(b[0]), int(b[1]))]; !ok {
				bytes += disk.BucketLen(int(b[0]), int(b[1])) * EdgeBytes
			}
		}
		var want []graph.Edge
		for _, b := range train {
			bytes += disk.BucketLen(int(b[0]), int(b[1])) * EdgeBytes
			want, _ = mem.ReadBucket(int(b[0]), int(b[1]), want)
		}
		rec.n = nil
		got, err := fetched.Fetch(lacks, train, nil)
		if err != nil {
			t.Fatal(err)
		}
		reads := disk.Stats().Snapshot().Reads
		if fv, err = fv.Swap(set); err != nil {
			t.Fatal(err)
		}
		if pv, err = pv.Swap(set); err != nil {
			t.Fatal(err)
		}
		switch {
		case !slices.Equal(got, want):
			t.Fatalf("%v: Fetch returned other training edges than ReadBucket", set)
		case !slices.Equal(rec.n, []int{bytes}):
			t.Fatalf("%v: throttle charged %v, want one Wait of %d bytes", set, rec.n, bytes)
		case disk.Stats().Snapshot().Reads != reads:
			t.Fatalf("%v: Swap read the store after Fetch", set)
		}
		for _, p := range set {
			lo, hi := pt.Range(p)
			for v := lo; v < hi; v++ {
				if !slices.Equal(fv.AppendOutNeighbors(nil, v), pv.AppendOutNeighbors(nil, v)) ||
					!slices.Equal(fv.AppendInNeighbors(nil, v), pv.AppendInNeighbors(nil, v)) {
					t.Fatalf("%v: node %d's neighbors differ from the per-bucket view's", set, v)
				}
			}
		}
		fh, fm := fetched.Stats()
		ph, pm := plain.Stats()
		if fh != ph || fm != pm {
			t.Fatalf("%v: hits/misses %d/%d, per-bucket lookups %d/%d", set, fh, fm, ph, pm)
		}
	}
}
