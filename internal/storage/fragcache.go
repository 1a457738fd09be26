package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/partition"
)

// FragCache builds and caches per-bucket CSR fragments over an EdgeStore,
// implementing graph.FragSource. Each bucket is read and counting-sorted
// at most once while it stays cached, so a partition-buffer swap costs
// only the admitted rows' and columns' fragments instead of re-reading
// and re-sorting all c² resident buckets; the pipeline prefetcher builds
// fragments for upcoming visits ahead of the trainer simply by composing
// their views on the prefetch goroutine.
//
// A trainer's loader reads each visit's edges as one request (Fetch): the
// buckets of the fragments its view lacks and the cache does not hold,
// and the visit's training buckets. Fetch stages the fragments it built,
// and the view's next lookups take them as the misses their reads were.
//
// Fragments are immutable once built, so cached pointers may be shared by
// concurrent samplers and remain valid after eviction (eviction only
// drops the cache's reference). The cache itself is safe for concurrent
// use.
type FragCache struct {
	es  EdgeStore
	pt  partition.Partitioning
	cap int

	mu      sync.Mutex
	frags   map[int]*fragEntry
	staged  map[int]*graph.BucketFrag // built by Fetch, not yet looked up
	tick    int64
	scratch []graph.Edge
	reqs    [][2]int32

	hits, misses atomic.Int64
}

type fragEntry struct {
	f    *graph.BucketFrag
	last int64
}

// NewFragCache returns a cache over es holding at most capBuckets
// fragments (minimum 1). Size it to cover the training window: the
// resident set plus the prefetch lookahead, i.e. (2c)² buckets for a
// buffer of capacity c, or p² to pin the whole graph.
func NewFragCache(es EdgeStore, pt partition.Partitioning, capBuckets int) *FragCache {
	if capBuckets < 1 {
		capBuckets = 1
	}
	return &FragCache{es: es, pt: pt, cap: capBuckets, frags: make(map[int]*fragEntry), staged: make(map[int]*graph.BucketFrag)}
}

// NumNodes implements graph.FragSource.
func (c *FragCache) NumNodes() int { return c.pt.NumNodes }

// NumPartitions implements graph.FragSource.
func (c *FragCache) NumPartitions() int { return c.pt.NumPartitions }

// PartSize implements graph.FragSource.
func (c *FragCache) PartSize() int { return c.pt.PartSize }

// Frag implements graph.FragSource: it returns bucket (i, j)'s fragment,
// building it from an EdgeStore read on a cache miss (or taking the one
// Fetch staged) and evicting the least-recently-used fragment when over
// capacity.
func (c *FragCache) Frag(i, j int) (*graph.BucketFrag, error) {
	key := c.pt.BucketID(i, j)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.frags[key]; ok {
		e.last = c.tick
		c.hits.Add(1)
		return e.f, nil
	}
	c.misses.Add(1)
	f, ok := c.staged[key]
	if ok {
		delete(c.staged, key)
	} else {
		edges, err := c.es.ReadBucket(i, j, c.scratch[:0])
		if err != nil {
			return nil, err
		}
		c.scratch = edges[:0]
		f = c.build(i, j, edges)
	}
	for len(c.frags) >= c.cap {
		lruKey, lruLast := -1, c.tick+1
		for k, e := range c.frags {
			if e.last < lruLast {
				lruKey, lruLast = k, e.last
			}
		}
		delete(c.frags, lruKey)
	}
	c.frags[key] = &fragEntry{f: f, last: c.tick}
	return f, nil
}

// build counting-sorts bucket (i, j)'s edges into its fragment.
func (c *FragCache) build(i, j int, edges []graph.Edge) *graph.BucketFrag {
	srcLo, srcHi := c.pt.Range(i)
	dstLo, dstHi := c.pt.Range(j)
	return graph.BuildBucketFrag(srcLo, srcHi, dstLo, dstHi, edges)
}

// Fetch appends the edges of buckets to dst and builds the fragments of
// the buckets in lacks that the cache does not hold, reading both as one
// edge-store request (EdgeStore.ReadBuckets). lacks is what a view's next
// Swap looks up (graph.Segmented.Lacks): each fragment built waits,
// staged, for that lookup, which counts it as the miss its read was; a
// later Fetch drops any left.
func (c *FragCache) Fetch(lacks, buckets [][2]int32, dst []graph.Edge) ([]graph.Edge, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.staged)
	reqs := append(c.reqs[:0], buckets...)
	for _, b := range lacks {
		if _, ok := c.frags[c.pt.BucketID(int(b[0]), int(b[1]))]; !ok {
			reqs = append(reqs, b)
		}
	}
	c.reqs = reqs
	mark := len(dst)
	for _, b := range buckets {
		mark += c.es.BucketLen(int(b[0]), int(b[1]))
	}
	// The training buckets' edges come first, in dst; the fragments'
	// follow them and are cut off once built.
	dst, err := c.es.ReadBuckets(reqs, dst)
	if err != nil {
		return dst, err
	}
	at := mark
	for _, b := range reqs[len(buckets):] {
		i, j := int(b[0]), int(b[1])
		n := c.es.BucketLen(i, j)
		c.staged[c.pt.BucketID(i, j)] = c.build(i, j, dst[at:at+n])
		at += n
	}
	return dst[:mark], nil
}

// Stats returns the cumulative hit and miss counts (a hit serves a
// fragment without touching the edge store).
func (c *FragCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached fragments.
func (c *FragCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frags)
}
