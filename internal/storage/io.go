// Package storage implements the MariusGNN storage layer (paper §3,
// Fig. 2): node base representations live in a single file split into p
// contiguous physical partitions, edges live in a bucket-sorted file, and
// a partition buffer with capacity c pages partitions between disk and CPU
// memory, with asynchronous prefetch of the next partition set and
// write-back of updated (learnable) representations.
//
// The paper runs against an EBS volume with ~1 GB/s bandwidth; a Throttle
// can simulate that regime on fast local disks so the IO/compute overlap
// behaves as in the paper's benchmarks.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Stats counts IO performed by a store. All fields are updated atomically
// and may be read concurrently.
type Stats struct {
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	Reads        atomic.Int64
	Writes       atomic.Int64
	Swaps        atomic.Int64
	// PrefetchHits counts partition loads served from already-completed
	// prefetch staging (or an in-flight write-back buffer) — the IO
	// genuinely overlapped compute. PrefetchMisses counts loads whose
	// read time landed on the critical path: synchronous reads and
	// blocked waits on still-in-flight staged reads.
	PrefetchHits   atomic.Int64
	PrefetchMisses atomic.Int64
	// Retries counts transient IO errors absorbed by the bounded-backoff
	// retry loop; Gaveup counts operations that exhausted the retry
	// budget and surfaced the error. Retries are never silent: both are
	// exported as storage_io_retries_total / storage_io_gaveup_total.
	Retries atomic.Int64
	Gaveup  atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead.Load(),
		BytesWritten:   s.BytesWritten.Load(),
		Reads:          s.Reads.Load(),
		Writes:         s.Writes.Load(),
		Swaps:          s.Swaps.Load(),
		PrefetchHits:   s.PrefetchHits.Load(),
		PrefetchMisses: s.PrefetchMisses.Load(),
		Retries:        s.Retries.Load(),
		Gaveup:         s.Gaveup.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	BytesRead      int64
	BytesWritten   int64
	Reads          int64
	Writes         int64
	Swaps          int64
	PrefetchHits   int64
	PrefetchMisses int64
	Retries        int64
	Gaveup         int64
}

// Sub returns s - o component-wise.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead - o.BytesRead,
		BytesWritten:   s.BytesWritten - o.BytesWritten,
		Reads:          s.Reads - o.Reads,
		Writes:         s.Writes - o.Writes,
		Swaps:          s.Swaps - o.Swaps,
		PrefetchHits:   s.PrefetchHits - o.PrefetchHits,
		PrefetchMisses: s.PrefetchMisses - o.PrefetchMisses,
		Retries:        s.Retries - o.Retries,
		Gaveup:         s.Gaveup - o.Gaveup,
	}
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("read %.1f MB (%d ops), wrote %.1f MB (%d ops), %d swaps",
		float64(s.BytesRead)/1e6, s.Reads, float64(s.BytesWritten)/1e6, s.Writes, s.Swaps)
}

// Throttle models a bandwidth-limited block device. A nil *Throttle means
// unlimited. Wait blocks for the transfer time of n bytes beyond what has
// already elapsed, shared across goroutines like a single device queue.
type Throttle struct {
	bytesPerSec float64
	mu          sync.Mutex
	nextFree    time.Time
}

// NewThrottle returns a throttle simulating the given bandwidth.
func NewThrottle(bytesPerSec float64) *Throttle {
	return &Throttle{bytesPerSec: bytesPerSec}
}

// Wait accounts for an n-byte transfer and sleeps if the simulated device
// is saturated.
func (t *Throttle) Wait(n int) {
	if t == nil || t.bytesPerSec <= 0 || n <= 0 {
		return
	}
	dur := time.Duration(float64(n) / t.bytesPerSec * float64(time.Second))
	t.mu.Lock()
	now := time.Now()
	if t.nextFree.Before(now) {
		t.nextFree = now
	}
	t.nextFree = t.nextFree.Add(dur)
	wait := t.nextFree.Sub(now)
	t.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// readerAt is the subset of *os.File the stores need, allowing tests to
// substitute failing or in-memory implementations.
type readerAt interface {
	io.ReaderAt
	io.WriterAt
}

// Bounded exponential backoff for transient IO errors (fault.IsTransient:
// injected transients and EINTR-class errnos). retryMax attempts at
// retryBase doubling gives ≈7.5ms of cumulative sleep in the worst case —
// long enough to ride out an interrupted syscall or a throttling blip,
// short enough that a genuinely dead disk surfaces within one partition
// load. Deliberately package-level, not per-store: the policy is part of
// the storage layer's contract, and every caller shares it.
const (
	retryMax  = 4
	retryBase = 500 * time.Microsecond
)

// readFull reads len(p) bytes at off, looping to fill on short reads
// (POSIX permits n < len(p) with nil error — EINTR-style partial IO)
// and retrying transient errors with bounded exponential backoff. Any
// forward progress resets the retry budget: only a *stalled* transient
// gives up. Fatal errors surface immediately.
func readFull(f io.ReaderAt, p []byte, off int64, st *Stats) error {
	attempt := 0
	for len(p) > 0 {
		n, err := f.ReadAt(p, off)
		p = p[n:]
		off += int64(n)
		if len(p) == 0 {
			// Full fill; a ReaderAt at exact EOF may still report io.EOF.
			return nil
		}
		if err == nil {
			if n == 0 {
				return io.ErrNoProgress
			}
			attempt = 0 // short read: loop to fill
			continue
		}
		if n > 0 {
			attempt = 0
		}
		if !fault.IsTransient(err) {
			return err
		}
		if attempt >= retryMax {
			if st != nil {
				st.Gaveup.Add(1)
			}
			return err
		}
		if st != nil {
			st.Retries.Add(1)
		}
		time.Sleep(retryBase << attempt)
		attempt++
	}
	return nil
}

// writeFull writes all of p at off with the same loop-to-fill and
// transient-retry discipline as readFull. Torn writes re-issue only the
// unwritten tail, so a retried write never double-applies a prefix.
func writeFull(f io.WriterAt, p []byte, off int64, st *Stats) error {
	attempt := 0
	for len(p) > 0 {
		n, err := f.WriteAt(p, off)
		p = p[n:]
		off += int64(n)
		if len(p) == 0 {
			return nil
		}
		if err == nil {
			if n == 0 {
				return io.ErrNoProgress
			}
			attempt = 0
			continue
		}
		if n > 0 {
			attempt = 0
		}
		if !fault.IsTransient(err) {
			return err
		}
		if attempt >= retryMax {
			if st != nil {
				st.Gaveup.Add(1)
			}
			return err
		}
		if st != nil {
			st.Retries.Add(1)
		}
		time.Sleep(retryBase << attempt)
		attempt++
	}
	return nil
}

// readBufs recycles the byte image of a read, which lives only until it is
// decoded into the caller's floats or edges. Without it every partition and
// bucket read allocates its own size again. Still one readFull per read, so
// Stats, throttle waits and the fault injector's op count are what they
// were.
var readBufs sync.Pool

// getReadBuf returns a pooled buffer grown to n bytes; give it back with
// readBufs.Put once nothing refers to its bytes.
func getReadBuf(n int) *[]byte {
	bp, _ := readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// readFloats reads count float32 values at byte offset off into dst.
func readFloats(f io.ReaderAt, off int64, dst []float32, st *Stats, th *Throttle) error {
	bp := getReadBuf(len(dst) * 4)
	defer readBufs.Put(bp)
	buf := *bp
	if err := readFull(f, buf, off, st); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	if st != nil {
		st.BytesRead.Add(int64(len(buf)))
		st.Reads.Add(1)
	}
	th.Wait(len(buf))
	return nil
}

// readBytes reads len(dst) raw bytes at byte offset off — the compressed
// analog of readFloats for quantized tables, so stats and the throttle
// account the bytes that actually cross the (simulated) device.
func readBytes(f io.ReaderAt, off int64, dst []byte, st *Stats, th *Throttle) error {
	if err := readFull(f, dst, off, st); err != nil {
		return err
	}
	if st != nil {
		st.BytesRead.Add(int64(len(dst)))
		st.Reads.Add(1)
	}
	th.Wait(len(dst))
	return nil
}

// writeFloats writes src as float32 values at byte offset off.
func writeFloats(f io.WriterAt, off int64, src []float32, st *Stats, th *Throttle) error {
	buf := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	if err := writeFull(f, buf, off, st); err != nil {
		return err
	}
	if st != nil {
		st.BytesWritten.Add(int64(len(buf)))
		st.Writes.Add(1)
	}
	th.Wait(len(buf))
	return nil
}

// EdgeBytes is the on-disk size of one encoded edge: src, rel, dst as
// little-endian int32. It is the single source of truth for the edge
// layout, shared with the dataset preprocessor (internal/dataset) whose
// bucket files must stay byte-compatible with DiskEdgeStore.
const EdgeBytes = 12

const edgeBytes = EdgeBytes

// EncodeEdge writes e's EdgeBytes-byte on-disk image into buf.
func EncodeEdge(e graph.Edge, buf []byte) {
	binary.LittleEndian.PutUint32(buf, uint32(e.Src))
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Rel))
	binary.LittleEndian.PutUint32(buf[8:], uint32(e.Dst))
}

func encodeEdge(e graph.Edge, buf []byte) { EncodeEdge(e, buf) }

func encodeEdges(edges []graph.Edge) []byte {
	buf := make([]byte, len(edges)*edgeBytes)
	for i, e := range edges {
		encodeEdge(e, buf[i*edgeBytes:])
	}
	return buf
}

func decodeEdges(buf []byte, dst []graph.Edge) []graph.Edge {
	n := len(buf) / edgeBytes
	for i := 0; i < n; i++ {
		dst = append(dst, graph.Edge{
			Src: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes:])),
			Rel: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes+4:])),
			Dst: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes+8:])),
		})
	}
	return dst
}
