package storage

import (
	"math/rand"
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
