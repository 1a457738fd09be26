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
// A swap looks up all the fragments its view lacks in one Frags call:
// the cached ones are hits, and the rest are read as one edge-store
// request (one throttle charge per visit), built, and counted as misses.
// A fragment keeps its bucket's file order, so the trainer takes link
// prediction's training edges from the view too: every edge byte a visit
// needs is read at most once.
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
	tick    int64
	scratch []graph.Edge

	hits, misses atomic.Int64
}

// fragEntry is a cached fragment; f is nil while its bucket's read is in
// flight (inside Frags, under the lock).
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
	return &FragCache{es: es, pt: pt, cap: capBuckets, frags: make(map[int]*fragEntry)}
}

// NumNodes implements graph.FragSource.
func (c *FragCache) NumNodes() int { return c.pt.NumNodes }

// NumPartitions implements graph.FragSource.
func (c *FragCache) NumPartitions() int { return c.pt.NumPartitions }

// PartSize implements graph.FragSource.
func (c *FragCache) PartSize() int { return c.pt.PartSize }

// Frags implements graph.FragSource. It looks the buckets up in order, as
// one lookup after another would: a cached fragment is a hit; a missing
// one is a miss, enters the cache at once and may evict the
// least-recently-used fragment (even one a later bucket of the call would
// have hit). The misses' buckets are then read as one request
// (EdgeStore.ReadBuckets) and built.
func (c *FragCache) Frags(buckets [][2]int32, dst []*graph.BucketFrag) ([]*graph.BucketFrag, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents := make([]*fragEntry, len(buckets))
	var reqs [][2]int32
	var built []*fragEntry // parallel to reqs
	for k, b := range buckets {
		key := c.pt.BucketID(int(b[0]), int(b[1]))
		c.tick++
		e, ok := c.frags[key]
		if ok {
			e.last = c.tick
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
			e = &fragEntry{last: c.tick}
			c.insert(key, e)
			reqs, built = append(reqs, b), append(built, e)
		}
		ents[k] = e
	}
	if len(reqs) > 0 {
		edges, err := c.es.ReadBuckets(reqs, c.scratch[:0])
		if err != nil {
			for k, e := range built {
				if key := c.pt.BucketID(int(reqs[k][0]), int(reqs[k][1])); c.frags[key] == e {
					delete(c.frags, key)
				}
			}
			return dst, err
		}
		c.scratch = edges[:0]
		for k, b := range reqs {
			i, j := int(b[0]), int(b[1])
			n := c.es.BucketLen(i, j)
			srcLo, srcHi := c.pt.Range(i)
			dstLo, dstHi := c.pt.Range(j)
			built[k].f = graph.BuildBucketFrag(srcLo, srcHi, dstLo, dstHi, edges[:n])
			edges = edges[n:]
		}
	}
	for _, e := range ents {
		dst = append(dst, e.f)
	}
	return dst, nil
}

// insert caches e under key, evicting the least-recently-used fragment
// when at capacity.
func (c *FragCache) insert(key int, e *fragEntry) {
	for len(c.frags) >= c.cap {
		lruKey, lruLast := -1, c.tick+1
		for k, e := range c.frags {
			if e.last < lruLast {
				lruKey, lruLast = k, e.last
			}
		}
		delete(c.frags, lruKey)
	}
	c.frags[key] = e
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
