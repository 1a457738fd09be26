package storage

import (
	"fmt"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
)

// EdgeStore serves edge buckets. Bucket (i,j) holds all edges with source
// in partition i and destination in partition j; each bucket's edges are
// stored contiguously (paper §3).
//
// Buffer-reuse contract for ReadBucket, identical across backends: the
// bucket's edges are appended to dst (by value — never views of store
// internals) and the possibly-reallocated slice is returned; the store
// retains no reference to dst, so callers may recycle one buffer across
// calls with dst[:0]. ReadBucket is safe for concurrent use with other
// reads (the pipeline prefetcher reads buckets while the trainer
// computes).
type EdgeStore interface {
	// ReadBucket appends the edges of bucket (i,j) to dst and returns the
	// extended slice, per the buffer-reuse contract above.
	ReadBucket(i, j int, dst []graph.Edge) ([]graph.Edge, error)
	// ReadBuckets appends the edges of each of buckets to dst in turn, as
	// ReadBucket would one by one, but as one request: each bucket is
	// still its own read and Stats entry, and a disk store charges its
	// throttle once, for their summed bytes.
	ReadBuckets(buckets [][2]int32, dst []graph.Edge) ([]graph.Edge, error)
	// BucketLen returns the number of edges in bucket (i,j).
	BucketLen(i, j int) int
	// NumPartitions returns p.
	NumPartitions() int
	// Stats returns the store's cumulative read counters. For disk
	// stores these are real IO; for memory stores, logical bytes served
	// (len(bucket) * 12 bytes/edge), so callers can reason about edge
	// traffic uniformly across backends.
	Stats() *Stats
	Close() error
}

// ReadAllEdges reads every bucket of es into one slice in bucket order,
// (0,0), (0,1), ..., (p-1,p-1): the flattened order the segmented
// training index exposes. Evaluation and serving build their full-graph
// adjacency from it, so both sample from one neighbor layout whatever
// store the edges live in. It is one request (EdgeStore.ReadBuckets), so
// a disk store charges its throttle once, for the whole file.
func ReadAllEdges(es EdgeStore) ([]graph.Edge, error) {
	p := es.NumPartitions()
	buckets := make([][2]int32, 0, p*p)
	total := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			buckets = append(buckets, [2]int32{int32(i), int32(j)})
			total += es.BucketLen(i, j)
		}
	}
	return es.ReadBuckets(buckets, make([]graph.Edge, 0, total))
}

// MemoryEdgeStore keeps all buckets in memory.
type MemoryEdgeStore struct {
	pt      partition.Partitioning
	buckets [][]graph.Edge
	stats   Stats
}

// NewMemoryEdgeStore buckets edges in memory.
func NewMemoryEdgeStore(pt partition.Partitioning, edges []graph.Edge) *MemoryEdgeStore {
	return &MemoryEdgeStore{pt: pt, buckets: pt.Buckets(edges)}
}

// ReadBucket implements EdgeStore. Empty buckets are not counted, so the
// Reads/BytesRead counters match DiskEdgeStore's (which early-returns
// before performing IO) for identical access patterns.
func (m *MemoryEdgeStore) ReadBucket(i, j int, dst []graph.Edge) ([]graph.Edge, error) {
	b := m.buckets[m.pt.BucketID(i, j)]
	if len(b) == 0 {
		return dst, nil
	}
	m.stats.Reads.Add(1)
	m.stats.BytesRead.Add(int64(len(b)) * edgeBytes)
	return append(dst, b...), nil
}

// ReadBuckets implements EdgeStore.
func (m *MemoryEdgeStore) ReadBuckets(buckets [][2]int32, dst []graph.Edge) ([]graph.Edge, error) {
	for _, b := range buckets {
		dst, _ = m.ReadBucket(int(b[0]), int(b[1]), dst) // a memory read cannot fail
	}
	return dst, nil
}

// BucketLen implements EdgeStore.
func (m *MemoryEdgeStore) BucketLen(i, j int) int { return len(m.buckets[m.pt.BucketID(i, j)]) }

// NumPartitions implements EdgeStore.
func (m *MemoryEdgeStore) NumPartitions() int { return m.pt.NumPartitions }

// Stats implements EdgeStore: logical read counters (no real IO happens).
func (m *MemoryEdgeStore) Stats() *Stats { return &m.stats }

// Close implements EdgeStore.
func (m *MemoryEdgeStore) Close() error { return nil }

// DiskEdgeStore serves edge buckets from a single bucket-sorted file.
type DiskEdgeStore struct {
	pt       partition.Partitioning
	f        fault.File
	offsets  []int64 // p²+1 prefix edge counts; bucket b spans [offsets[b], offsets[b+1])
	stats    Stats
	throttle waiter
}

// waiter is the device a store charges its transfers to: a *Throttle (nil
// is unlimited), or a test's recorder.
type waiter interface{ Wait(n int) }

// CreateDiskEdgeStoreFS bucket-sorts edges into a file under dir, opened
// through fsys (nil means the real filesystem).
func CreateDiskEdgeStoreFS(fsys fault.FS, dir string, pt partition.Partitioning, edges []graph.Edge, throttle *Throttle) (*DiskEdgeStore, error) {
	s := &DiskEdgeStore{pt: pt, throttle: throttle}
	f, err := fault.Or(fsys).Create(filepath.Join(dir, "edges.bin"))
	if err != nil {
		return nil, err
	}
	buckets := pt.Buckets(edges)
	offsets := make([]int64, len(buckets)+1)
	var pos int64
	for b, bucket := range buckets {
		offsets[b] = pos
		buf := encodeEdges(bucket)
		if len(buf) > 0 {
			if err := writeFull(f, buf, pos*edgeBytes, &s.stats); err != nil {
				f.Close()
				return nil, err
			}
		}
		pos += int64(len(bucket))
	}
	offsets[len(buckets)] = pos
	s.f, s.offsets = f, offsets
	return s, nil
}

// ReadBucket implements EdgeStore.
func (s *DiskEdgeStore) ReadBucket(i, j int, dst []graph.Edge) ([]graph.Edge, error) {
	return s.ReadBuckets([][2]int32{{int32(i), int32(j)}}, dst)
}

// ReadBuckets implements EdgeStore. The throttle is charged once, for the
// bytes read, after the last read (or a failed one).
func (s *DiskEdgeStore) ReadBuckets(buckets [][2]int32, dst []graph.Edge) ([]graph.Edge, error) {
	var n int
	defer func() { s.throttle.Wait(n) }()
	for _, ij := range buckets {
		b := s.pt.BucketID(int(ij[0]), int(ij[1]))
		start, end := s.offsets[b], s.offsets[b+1]
		if start == end {
			continue
		}
		bp := getIOBuf(int(end-start) * edgeBytes)
		buf := *bp
		if err := readFull(s.f, buf, start*edgeBytes, &s.stats); err != nil {
			ioBufs.Put(bp)
			return dst, fmt.Errorf("storage: read bucket (%d,%d): %w", ij[0], ij[1], err)
		}
		s.stats.BytesRead.Add(int64(len(buf)))
		s.stats.Reads.Add(1)
		n += len(buf)
		dst = decodeEdges(buf, dst)
		ioBufs.Put(bp)
	}
	return dst, nil
}

// BucketLen implements EdgeStore.
func (s *DiskEdgeStore) BucketLen(i, j int) int {
	b := s.pt.BucketID(i, j)
	return int(s.offsets[b+1] - s.offsets[b])
}

// NumPartitions implements EdgeStore.
func (s *DiskEdgeStore) NumPartitions() int { return s.pt.NumPartitions }

// Stats returns the store's IO counters.
func (s *DiskEdgeStore) Stats() *Stats { return &s.stats }

// Close implements EdgeStore.
func (s *DiskEdgeStore) Close() error { return s.f.Close() }
