package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// NodeStore provides read (and for learnable representations, update)
// access to node base representations by global node ID.
type NodeStore interface {
	// Dim returns the representation dimensionality.
	Dim() int
	// NumNodes returns the table height.
	NumNodes() int
	// Gather copies the representations of ids into out ([len(ids) x Dim]).
	Gather(ids []int32, out *tensor.Tensor) error
	// ApplyGrads applies sparse AdaGrad updates to the given rows
	// (paper Fig. 2 step 6). ids may repeat.
	ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error
	// Snapshot returns a copy of the full representation table and the
	// per-row sparse-AdaGrad accumulators (nil when the store maintains
	// no per-row optimizer state), for checkpointing and full-table
	// evaluation.
	Snapshot() (*tensor.Tensor, []float32, error)
	// Restore overwrites the table (and accumulators, when state is
	// non-nil) from a snapshot taken on an identically-shaped store.
	Restore(table *tensor.Tensor, state []float32) error
	// Close releases resources, flushing any dirty state.
	Close() error
}

// MemoryNodeStore keeps the whole representation table in CPU memory
// (the M-GNN_Mem configuration).
type MemoryNodeStore struct {
	mu    sync.RWMutex
	table *tensor.Tensor
	state []float32
}

// NewMemoryNodeStore wraps table (used directly, not copied).
func NewMemoryNodeStore(table *tensor.Tensor) *MemoryNodeStore {
	return &MemoryNodeStore{table: table, state: make([]float32, table.Rows)}
}

// Dim implements NodeStore.
func (m *MemoryNodeStore) Dim() int { return m.table.Cols }

// NumNodes implements NodeStore.
func (m *MemoryNodeStore) NumNodes() int { return m.table.Rows }

// Table returns the underlying tensor (for full-ranking evaluation).
func (m *MemoryNodeStore) Table() *tensor.Tensor { return m.table }

// Gather implements NodeStore.
func (m *MemoryNodeStore) Gather(ids []int32, out *tensor.Tensor) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d := m.table.Cols
	for i, id := range ids {
		copy(out.Data[i*d:(i+1)*d], m.table.Row(int(id)))
	}
	return nil
}

// ApplyGrads implements NodeStore.
func (m *MemoryNodeStore) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, id := range ids {
		m.state[id] = opt.StepRow(m.table.Row(int(id)), grads.Row(i), m.state[id])
	}
	return nil
}

// Snapshot implements NodeStore.
func (m *MemoryNodeStore) Snapshot() (*tensor.Tensor, []float32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.table.Clone(), append([]float32(nil), m.state...), nil
}

// Restore implements NodeStore.
func (m *MemoryNodeStore) Restore(table *tensor.Tensor, state []float32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.table.SameShape(table) {
		return fmt.Errorf("storage: restore shape %dx%d into %dx%d table",
			table.Rows, table.Cols, m.table.Rows, m.table.Cols)
	}
	copy(m.table.Data, table.Data)
	if state != nil {
		if len(state) != len(m.state) {
			return fmt.Errorf("storage: restore %d optimizer rows into %d", len(state), len(m.state))
		}
		copy(m.state, state)
	}
	return nil
}

// Close implements NodeStore.
func (m *MemoryNodeStore) Close() error { return nil }

// DiskNodeStore pages node representations between a file and a partition
// buffer of capacity c physical partitions (the M-GNN_Disk configuration,
// paper Fig. 2 storage layer). Optimizer state for learnable
// representations is persisted in a sibling file.
type DiskNodeStore struct {
	pt        partition.Partitioning
	dim       int
	learnable bool

	f  fault.File
	sf fault.File // per-node AdaGrad accumulators; nil when not learnable

	mu       sync.RWMutex
	capacity int
	slotData []float32 // capacity × partSize × dim
	slotOpt  []float32 // capacity × partSize
	resident map[int]int
	slotPart []int
	dirty    []bool
	free     []int

	stagedMu sync.Mutex
	staged   map[int]*stagedPartition
	pending  sync.WaitGroup
	// Reusable staging buffers (data sized PartSize*dim, opt sized
	// PartSize): Prefetch pops, LoadSet pushes back after consuming the
	// staged bytes, bounded to capacity buffers so the pool stays small
	// even when a pipeline prefetches aggressively. The async write-back
	// path borrows from the same pool.
	stagePool    [][]float32
	stageOptPool [][]float32

	// Evict-side double buffering: dirty evicted partitions are copied
	// into a staging buffer and written back by a background goroutine,
	// so the write leaves the trainer's critical path. A load of a
	// partition with an in-flight write is served from the write buffer
	// (it is the newest data). wbErr latches the first async write
	// failure and is surfaced by the next LoadSet/Flush/Close.
	wbMu      sync.Mutex
	writeback map[int]*pendingWrite
	wbPending sync.WaitGroup
	wbErr     error
	// failed retains the staging buffers of async write-backs that
	// errored: they hold the only current copy of those partitions, so
	// recycling them would lose updates. Flush retries them (clearing
	// wbErr when every retry lands), keeping the store consistent for
	// another attempt after the epoch surfaces the error.
	failed map[int]*failedWrite

	// Quantized (read-only) tables: the file holds quant-encoded
	// elements; readPartition moves only the compressed bytes across the
	// (simulated) device and dequantizes into the float32 buffer. For
	// int8, qscale/qzero hold the per-node affine parameters from the
	// sidecar, loaded fully at open (8 bytes per node).
	quant  tensor.QuantKind
	qscale []float32
	qzero  []float32

	stats    Stats
	throttle *Throttle
	tracer   atomic.Pointer[obs.Tracer] // evict write-back spans; nil = off
}

// pendingWrite is one in-flight asynchronous partition write-back.
type pendingWrite struct {
	done chan struct{}
	data []float32
	opt  []float32
}

// failedWrite holds the buffers of a write-back that errored, pending a
// Flush retry.
type failedWrite struct {
	data []float32
	opt  []float32
}

type stagedPartition struct {
	done chan struct{}
	data []float32
	opt  []float32
	err  error
}

// DiskStoreConfig configures CreateDiskNodeStore.
type DiskStoreConfig struct {
	Dir       string
	Part      partition.Partitioning
	Dim       int
	Capacity  int  // buffer capacity c in physical partitions
	Learnable bool // track AdaGrad state and write updates back
	Throttle  *Throttle
	// Init fills the initial representation of node id into row; nil
	// leaves representations zero.
	Init func(id int32, row []float32)

	// Quant is the on-disk element encoding of an opened (read-only)
	// table file; QuantNone means plain float32. ScalePath names the
	// int8 (scale, zero) sidecar, required when Quant is QuantI8.
	Quant     tensor.QuantKind
	ScalePath string

	// FS is the file-opening seam; nil means the real filesystem. Tests
	// and the chaos harness pass a fault.Injector.
	FS fault.FS
}

// newDiskNodeStore builds the in-memory store state (empty buffer, full
// free list) over an already-open table file.
func newDiskNodeStore(cfg DiskStoreConfig, f fault.File) *DiskNodeStore {
	s := &DiskNodeStore{
		pt:        cfg.Part,
		dim:       cfg.Dim,
		learnable: cfg.Learnable,
		f:         f,
		capacity:  cfg.Capacity,
		slotData:  make([]float32, cfg.Capacity*cfg.Part.PartSize*cfg.Dim),
		resident:  make(map[int]int, cfg.Capacity),
		slotPart:  make([]int, cfg.Capacity),
		dirty:     make([]bool, cfg.Capacity),
		staged:    make(map[int]*stagedPartition),
		writeback: make(map[int]*pendingWrite),
		failed:    make(map[int]*failedWrite),
		quant:     cfg.Quant,
		throttle:  cfg.Throttle,
	}
	for i := range s.slotPart {
		s.slotPart[i] = -1
		s.free = append(s.free, i)
	}
	if cfg.Learnable {
		s.slotOpt = make([]float32, cfg.Capacity*cfg.Part.PartSize)
	}
	return s
}

// CreateDiskNodeStore writes the initial table to disk and opens a store
// with an empty buffer.
func CreateDiskNodeStore(cfg DiskStoreConfig) (*DiskNodeStore, error) {
	if cfg.Capacity <= 0 || cfg.Capacity > cfg.Part.NumPartitions {
		return nil, fmt.Errorf("storage: capacity %d out of range (1..%d)", cfg.Capacity, cfg.Part.NumPartitions)
	}
	if cfg.Quant != tensor.QuantNone {
		return nil, fmt.Errorf("storage: quantized tables are written by ingest and opened read-only, not created")
	}
	fsys := fault.Or(cfg.FS)
	f, err := fsys.Create(filepath.Join(cfg.Dir, "nodes.bin"))
	if err != nil {
		return nil, err
	}
	s := newDiskNodeStore(cfg, f)
	if cfg.Learnable {
		sf, err := fsys.Create(filepath.Join(cfg.Dir, "nodes.opt.bin"))
		if err != nil {
			f.Close()
			return nil, err
		}
		s.sf = sf
	}
	// Write the initial table partition by partition (sequential IO).
	row := make([]float32, cfg.Dim)
	buf := make([]float32, 0, cfg.Part.PartSize*cfg.Dim)
	for p := 0; p < cfg.Part.NumPartitions; p++ {
		start, end := cfg.Part.Range(p)
		buf = buf[:0]
		for id := start; id < end; id++ {
			for i := range row {
				row[i] = 0
			}
			if cfg.Init != nil {
				cfg.Init(id, row)
			}
			buf = append(buf, row...)
		}
		if err := writeFloats(f, int64(start)*int64(cfg.Dim)*4, buf, nil, nil); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.Learnable {
		zeros := make([]float32, cfg.Part.NumNodes)
		if err := writeFloats(s.sf, 0, zeros, nil, nil); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// OpenDiskNodeStore pages an existing representation table file — e.g. a
// preprocessed dataset's feature shard — without rewriting it; the file
// must hold NumNodes x Dim float32 rows in node-ID order, exactly the
// layout CreateDiskNodeStore (and mariusprep) write. Only read-only
// stores can be opened this way: learnable tables are created fresh per
// training run (their optimizer state starts at zero). cfg.Dir and
// cfg.Init are ignored.
func OpenDiskNodeStore(cfg DiskStoreConfig, path string) (*DiskNodeStore, error) {
	if cfg.Learnable {
		return nil, fmt.Errorf("storage: open of %s: learnable stores must be created, not opened", path)
	}
	if cfg.Capacity <= 0 || cfg.Capacity > cfg.Part.NumPartitions {
		return nil, fmt.Errorf("storage: capacity %d out of range (1..%d)", cfg.Capacity, cfg.Part.NumPartitions)
	}
	// Training never writes a non-learnable store, but Restore (the
	// checkpoint path) may overwrite the table, so prefer read-write and
	// fall back to read-only on write-protected datasets — there
	// training still works, and Restore surfaces the write failure.
	fsys := fault.Or(cfg.FS)
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if os.IsPermission(err) {
		f, err = fsys.Open(path)
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	eb := int64(cfg.Quant.ElemBytes())
	if want := int64(cfg.Part.NumNodes) * int64(cfg.Dim) * eb; st.Size() < want {
		f.Close()
		return nil, corrupt(filepath.Base(path), "%d bytes on disk, %d nodes x %d dims at %d bytes/elem need %d (truncated)",
			st.Size(), cfg.Part.NumNodes, cfg.Dim, eb, want)
	}
	s := newDiskNodeStore(cfg, f)
	if cfg.Quant == tensor.QuantI8 {
		if cfg.ScalePath == "" {
			f.Close()
			return nil, fmt.Errorf("storage: open of %s: int8 table needs a scale sidecar", path)
		}
		sf, err := fsys.Open(cfg.ScalePath)
		if err != nil {
			f.Close()
			return nil, err
		}
		pairs := make([]float32, 2*cfg.Part.NumNodes)
		err = readFloats(sf, 0, pairs, nil, nil)
		sf.Close()
		if err != nil {
			f.Close()
			return nil, corrupt(filepath.Base(cfg.ScalePath), "short read: %v", err)
		}
		s.qscale = make([]float32, cfg.Part.NumNodes)
		s.qzero = make([]float32, cfg.Part.NumNodes)
		for i := range s.qscale {
			s.qscale[i], s.qzero[i] = pairs[2*i], pairs[2*i+1]
		}
	}
	return s, nil
}

// Dim implements NodeStore.
func (s *DiskNodeStore) Dim() int { return s.dim }

// NumNodes implements NodeStore.
func (s *DiskNodeStore) NumNodes() int { return s.pt.NumNodes }

// Stats returns the store's IO counters.
func (s *DiskNodeStore) Stats() *Stats { return &s.stats }

// Capacity returns the buffer capacity c in physical partitions, which
// also bounds the reusable staging pool (the pipeline clamps its
// lookahead so staging demand fits — policy.Plan.MaxLookahead).
func (s *DiskNodeStore) Capacity() int { return s.capacity }

// Resident returns the sorted list of partitions currently buffered.
func (s *DiskNodeStore) Resident() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.resident))
	for p := range s.resident {
		out = append(out, p)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (s *DiskNodeStore) partFloatRange(p int) (off int64, count int) {
	start, end := s.pt.Range(p)
	return int64(start) * int64(s.dim) * 4, int(end-start) * s.dim
}

// readPartition loads partition p's floats (and optimizer state) from disk.
func (s *DiskNodeStore) readPartition(p int, data, opt []float32) error {
	if s.quant != tensor.QuantNone {
		return s.readQuantPartition(p, data)
	}
	off, _ := s.partFloatRange(p)
	if err := readFloats(s.f, off, data, &s.stats, s.throttle); err != nil {
		return fmt.Errorf("storage: read partition %d: %w", p, err)
	}
	if s.learnable {
		start, _ := s.pt.Range(p)
		if err := readFloats(s.sf, int64(start)*4, opt, &s.stats, s.throttle); err != nil {
			return fmt.Errorf("storage: read opt state %d: %w", p, err)
		}
	}
	return nil
}

// readQuantPartition reads partition p's compressed bytes — only the
// compressed size crosses the device (and counts toward Stats and the
// Throttle; that is the partition-swap IO the quantization saves) — and
// dequantizes row by row into the store's float32 buffer. Dequantization
// is a pure element-wise function of bytes fixed at ingest, so the
// buffer contents are identical on every load, worker count, and run.
func (s *DiskNodeStore) readQuantPartition(p int, data []float32) error {
	start, end := s.pt.Range(p)
	eb := s.quant.ElemBytes()
	bp := getReadBuf(int(end-start) * s.dim * eb)
	defer readBufs.Put(bp)
	raw := *bp
	off := int64(start) * int64(s.dim) * int64(eb)
	if err := readBytes(s.f, off, raw, &s.stats, s.throttle); err != nil {
		return fmt.Errorf("storage: read partition %d: %w", p, err)
	}
	q := &tensor.QTable{Kind: s.quant, Rows: int(end - start), Cols: s.dim, Raw: raw}
	if s.quant == tensor.QuantI8 {
		q.Scale = s.qscale[start:end]
		q.Zero = s.qzero[start:end]
	}
	for r := 0; r < q.Rows; r++ {
		q.DequantRowInto(r, data[r*s.dim:(r+1)*s.dim])
	}
	return nil
}

// writePartition flushes slot contents for partition p back to disk.
func (s *DiskNodeStore) writePartition(p, slot int) error {
	base := slot * s.pt.PartSize * s.dim
	count := s.pt.Rows(p) * s.dim
	var opt []float32
	if s.learnable {
		ob := slot * s.pt.PartSize
		opt = s.slotOpt[ob : ob+s.pt.Rows(p)]
	}
	return s.writePartitionFrom(p, s.slotData[base:base+count], opt)
}

// writePartitionFrom writes partition p's representation rows (and, for
// learnable stores, optimizer state) from the given buffers.
func (s *DiskNodeStore) writePartitionFrom(p int, data, opt []float32) error {
	if s.quant != tensor.QuantNone {
		// Quantized tables are fixed at ingest; nothing marks them dirty.
		return fmt.Errorf("storage: write partition %d: quantized table is read-only", p)
	}
	off, _ := s.partFloatRange(p)
	if err := writeFloats(s.f, off, data, &s.stats, s.throttle); err != nil {
		return fmt.Errorf("storage: write partition %d: %w", p, err)
	}
	if s.learnable {
		start, _ := s.pt.Range(p)
		if err := writeFloats(s.sf, int64(start)*4, opt, &s.stats, s.throttle); err != nil {
			return fmt.Errorf("storage: write opt state %d: %w", p, err)
		}
	}
	return nil
}

// waitWriteback blocks until no write-back for p is in flight. Safe to
// call while holding s.mu: the writer goroutines never take it.
func (s *DiskNodeStore) waitWriteback(p int) {
	for {
		s.wbMu.Lock()
		wb := s.writeback[p]
		s.wbMu.Unlock()
		if wb == nil {
			return
		}
		<-wb.done
	}
}

// takeWbErr reports the sticky first async write-back failure.
func (s *DiskNodeStore) takeWbErr() error {
	s.wbMu.Lock()
	defer s.wbMu.Unlock()
	return s.wbErr
}

// evictAsync double-buffers the evict side of a swap: partition p's slot
// contents are copied into staging buffers and written back by a
// background goroutine, so the (throttled) write happens off the
// trainer's critical path, overlapped with the next visit's compute. The
// caller must hold s.mu.
func (s *DiskNodeStore) evictAsync(p, slot int) {
	s.waitWriteback(p) // an earlier evict of p must land first (write order)
	rows := s.pt.Rows(p)
	s.stagedMu.Lock()
	data, opt := s.getStageBufs(p)
	s.stagedMu.Unlock()
	base := slot * s.pt.PartSize * s.dim
	copy(data, s.slotData[base:base+rows*s.dim])
	if s.learnable {
		ob := slot * s.pt.PartSize
		copy(opt, s.slotOpt[ob:ob+rows])
	}
	wb := &pendingWrite{done: make(chan struct{}), data: data, opt: opt}
	s.wbMu.Lock()
	s.writeback[p] = wb
	s.wbMu.Unlock()
	s.wbPending.Add(1)
	go func() {
		defer s.wbPending.Done()
		t0 := time.Now()
		err := s.writePartitionFrom(p, data, opt)
		s.tracer.Load().Span("storage", "evict_writeback", obs.TIDEvict, t0, time.Since(t0))
		// Delete the entry and signal completion in one critical section:
		// a LoadSet serving a load from wb.data copies under wbMu, so the
		// buffers cannot be recycled mid-copy.
		var superseded *failedWrite
		s.wbMu.Lock()
		if err != nil {
			if s.wbErr == nil {
				s.wbErr = err
			}
			// Keep the buffers: they hold the only current copy of the
			// partition (the disk write did not land). Flush retries
			// them; meanwhile the sticky error surfaces on the next
			// LoadSet, failing the epoch rather than being swallowed
			// here.
			superseded = s.failed[p]
			s.failed[p] = &failedWrite{data: data, opt: opt}
		} else if old := s.failed[p]; old != nil {
			// This successful write carries newer data than the earlier
			// failed one; the stale retry entry is obsolete.
			superseded = old
			delete(s.failed, p)
		}
		delete(s.writeback, p)
		close(wb.done)
		s.wbMu.Unlock()
		s.stagedMu.Lock()
		if err == nil {
			s.putStageBufs(data, opt)
		}
		if superseded != nil {
			s.putStageBufs(superseded.data, superseded.opt)
		}
		s.stagedMu.Unlock()
	}()
}

// getStageBufs pops (or allocates) staging buffers for partition p; the
// caller must hold stagedMu.
func (s *DiskNodeStore) getStageBufs(p int) (data, opt []float32) {
	rows := s.pt.Rows(p)
	if k := len(s.stagePool); k > 0 {
		data = s.stagePool[k-1][:rows*s.dim]
		s.stagePool = s.stagePool[:k-1]
	} else {
		data = make([]float32, rows*s.dim, s.pt.PartSize*s.dim)
	}
	if s.learnable {
		if k := len(s.stageOptPool); k > 0 {
			opt = s.stageOptPool[k-1][:rows]
			s.stageOptPool = s.stageOptPool[:k-1]
		} else {
			opt = make([]float32, rows, s.pt.PartSize)
		}
	}
	return data, opt
}

// putStageBufs returns consumed staging buffers to the pool, keeping at
// most capacity of each; the caller must hold stagedMu.
func (s *DiskNodeStore) putStageBufs(data, opt []float32) {
	if data != nil && len(s.stagePool) < s.capacity {
		s.stagePool = append(s.stagePool, data[:cap(data)])
	}
	if opt != nil && len(s.stageOptPool) < s.capacity {
		s.stageOptPool = append(s.stageOptPool, opt[:cap(opt)])
	}
}

// Prefetch begins loading the given partitions into staging memory in the
// background (paper Fig. 2 step A: the buffer and IO manager prefetch the
// next partition set while training proceeds on the current one). Staging
// memory comes from a small reusable buffer pool; a later LoadSet of the
// same partitions consumes the staged bytes off the critical path and
// recycles the buffers. Safe to call concurrently with reads and with
// LoadSet (the pipeline prefetcher runs it ahead of the trainer).
func (s *DiskNodeStore) Prefetch(parts []int) {
	s.mu.RLock()
	need := make([]int, 0, len(parts))
	for _, p := range parts {
		if _, ok := s.resident[p]; !ok {
			need = append(need, p)
		}
	}
	s.mu.RUnlock()

	s.stagedMu.Lock()
	defer s.stagedMu.Unlock()
	for _, p := range need {
		if _, ok := s.staged[p]; ok {
			continue
		}
		// Partitions with an in-flight write-back are not staged: the
		// disk bytes are mid-rewrite, and a later LoadSet serves them
		// straight from the write buffer anyway. The check lives inside
		// the stagedMu section that inserts the entry so it cannot race
		// an eviction: a write-back registered after this check implies
		// the eviction's staged-entry invalidation (which needs stagedMu)
		// runs after our insert and removes it.
		s.wbMu.Lock()
		_, busy := s.writeback[p]
		s.wbMu.Unlock()
		if busy {
			continue
		}
		sp := &stagedPartition{done: make(chan struct{})}
		sp.data, sp.opt = s.getStageBufs(p)
		s.staged[p] = sp
		s.pending.Add(1)
		go func(p int, sp *stagedPartition) {
			defer s.pending.Done()
			sp.err = s.readPartition(p, sp.data, sp.opt)
			close(sp.done)
		}(p, sp)
	}
}

// LoadSet swaps the buffer so that exactly the partitions in parts are
// resident, writing back dirty evicted partitions and consuming any
// prefetched data. len(parts) must not exceed the buffer capacity.
func (s *DiskNodeStore) LoadSet(parts []int) error {
	if len(parts) > s.capacity {
		return fmt.Errorf("storage: set of %d partitions exceeds capacity %d", len(parts), s.capacity)
	}
	want := make(map[int]bool, len(parts))
	for _, p := range parts {
		want[p] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeWbErr(); err != nil {
		return err
	}
	// Evict partitions not wanted; dirty ones are written back
	// asynchronously (the evict side of the double buffer).
	for p, slot := range s.resident {
		if want[p] {
			continue
		}
		if s.dirty[slot] {
			s.evictAsync(p, slot)
		}
		s.dirty[slot] = false
		s.slotPart[slot] = -1
		s.free = append(s.free, slot)
		delete(s.resident, p)
		s.stats.Swaps.Add(1)
		// A prefetch raced with this partition's residency (staged while
		// it was in the buffer): its bytes predate the write-back above,
		// so the entry must never be consumed. Drop it; the in-flight
		// read goroutine still owns the buffer, which is simply not
		// returned to the pool.
		s.stagedMu.Lock()
		delete(s.staged, p)
		s.stagedMu.Unlock()
	}
	// Load missing partitions: an in-flight write-back buffer is the
	// freshest copy, then staged (prefetched) data, then a synchronous
	// read.
	for _, p := range parts {
		if _, ok := s.resident[p]; ok {
			continue
		}
		slot := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		base := slot * s.pt.PartSize * s.dim
		count := s.pt.Rows(p) * s.dim

		s.wbMu.Lock()
		if wb := s.writeback[p]; wb != nil {
			// Copy under wbMu: the writer only recycles wb's buffers
			// after deleting the entry in its own wbMu section.
			copy(s.slotData[base:base+count], wb.data)
			if s.learnable {
				copy(s.slotOpt[slot*s.pt.PartSize:], wb.opt)
			}
			s.wbMu.Unlock()
			s.stats.PrefetchHits.Add(1)
			s.resident[p] = slot
			s.slotPart[slot] = p
			continue
		}
		s.wbMu.Unlock()

		s.stagedMu.Lock()
		sp := s.staged[p]
		if sp != nil {
			delete(s.staged, p)
		}
		s.stagedMu.Unlock()

		if sp != nil {
			// A hit means the staged read genuinely overlapped compute:
			// it had already finished when the swap consumed it. A load
			// that must block on an in-flight staged read spent the IO on
			// the critical path and counts as a miss.
			finished := false
			select {
			case <-sp.done:
				finished = true
			default:
				<-sp.done
			}
			if sp.err != nil {
				return sp.err
			}
			copy(s.slotData[base:base+count], sp.data)
			if s.learnable {
				copy(s.slotOpt[slot*s.pt.PartSize:], sp.opt)
			}
			s.stagedMu.Lock()
			s.putStageBufs(sp.data, sp.opt)
			s.stagedMu.Unlock()
			if finished {
				s.stats.PrefetchHits.Add(1)
			} else {
				s.stats.PrefetchMisses.Add(1)
			}
		} else {
			var opt []float32
			if s.learnable {
				opt = s.slotOpt[slot*s.pt.PartSize : slot*s.pt.PartSize+s.pt.Rows(p)]
			}
			if err := s.readPartition(p, s.slotData[base:base+count], opt); err != nil {
				return err
			}
			s.stats.PrefetchMisses.Add(1)
		}
		s.resident[p] = slot
		s.slotPart[slot] = p
	}
	return nil
}

// rowSlice returns the in-buffer representation row for node id; the
// caller must hold mu.
func (s *DiskNodeStore) rowSlice(id int32) ([]float32, int, error) {
	p := s.pt.Of(id)
	slot, ok := s.resident[p]
	if !ok {
		return nil, 0, fmt.Errorf("storage: node %d in partition %d is not resident", id, p)
	}
	start, _ := s.pt.Range(p)
	idx := slot*s.pt.PartSize + int(id-start)
	return s.slotData[idx*s.dim : (idx+1)*s.dim], idx, nil
}

// Gather implements NodeStore.
func (s *DiskNodeStore) Gather(ids []int32, out *tensor.Tensor) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, id := range ids {
		row, _, err := s.rowSlice(id)
		if err != nil {
			return err
		}
		copy(out.Data[i*s.dim:(i+1)*s.dim], row)
	}
	return nil
}

// ApplyGrads implements NodeStore.
func (s *DiskNodeStore) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	if !s.learnable {
		return fmt.Errorf("storage: ApplyGrads on a read-only store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		row, idx, err := s.rowSlice(id)
		if err != nil {
			return err
		}
		s.slotOpt[idx] = opt.StepRow(row, grads.Row(i), s.slotOpt[idx])
		s.dirty[s.resident[s.pt.Of(id)]] = true
	}
	return nil
}

// retryFailed re-issues failed asynchronous write-backs synchronously,
// recycling their buffers and clearing the sticky error once every
// retained partition lands. Callers must have drained wbPending first.
func (s *DiskNodeStore) retryFailed() error {
	s.wbMu.Lock()
	parts := make([]int, 0, len(s.failed))
	for p := range s.failed {
		parts = append(parts, p)
	}
	s.wbMu.Unlock()
	sortInts(parts)
	for _, p := range parts {
		s.wbMu.Lock()
		fw := s.failed[p]
		s.wbMu.Unlock()
		if fw == nil {
			continue
		}
		if err := s.writePartitionFrom(p, fw.data, fw.opt); err != nil {
			s.wbMu.Lock()
			s.wbErr = err
			s.wbMu.Unlock()
			return err
		}
		s.wbMu.Lock()
		delete(s.failed, p)
		s.wbMu.Unlock()
		s.stagedMu.Lock()
		s.putStageBufs(fw.data, fw.opt)
		s.stagedMu.Unlock()
	}
	s.wbMu.Lock()
	defer s.wbMu.Unlock()
	if len(s.failed) == 0 {
		s.wbErr = nil
	}
	return s.wbErr
}

// Flush writes all dirty resident partitions back to disk and waits for
// in-flight asynchronous write-backs, so on return every update is
// durable. Write-backs that failed asynchronously are retried here from
// their retained buffers; if they now land, the sticky error clears and
// the store is fully consistent again.
func (s *DiskNodeStore) Flush() error {
	s.wbPending.Wait()
	if err := s.retryFailed(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, slot := range s.resident {
		if s.dirty[slot] {
			if err := s.writePartition(p, slot); err != nil {
				return err
			}
			s.dirty[slot] = false
		}
	}
	return nil
}

// ReadAll loads the entire table from disk into a tensor (for evaluation
// of small graphs). The buffer state is unaffected but dirty resident
// partitions are flushed first so the snapshot is current.
func (s *DiskNodeStore) ReadAll() (*tensor.Tensor, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	t := tensor.New(s.pt.NumNodes, s.dim)
	if s.quant != tensor.QuantNone {
		for p := 0; p < s.pt.NumPartitions; p++ {
			start, end := s.pt.Range(p)
			if err := s.readQuantPartition(p, t.Data[int(start)*s.dim:int(end)*s.dim]); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	if err := readFloats(s.f, 0, t.Data, &s.stats, s.throttle); err != nil {
		return nil, err
	}
	return t, nil
}

// Snapshot implements NodeStore: dirty resident partitions are flushed,
// then the full table and (for learnable stores) the per-row AdaGrad
// accumulators are read back from disk.
func (s *DiskNodeStore) Snapshot() (*tensor.Tensor, []float32, error) {
	t, err := s.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	var state []float32
	if s.learnable {
		state = make([]float32, s.pt.NumNodes)
		if err := readFloats(s.sf, 0, state, &s.stats, s.throttle); err != nil {
			return nil, nil, err
		}
	}
	return t, state, nil
}

// Restore implements NodeStore: the on-disk table (and accumulators) are
// overwritten and any resident partitions re-read so the buffer reflects
// the restored state.
func (s *DiskNodeStore) Restore(table *tensor.Tensor, state []float32) error {
	if s.quant != tensor.QuantNone {
		// Never reached in practice: only learnable tables are
		// checkpointed with contents, and quantized stores are read-only.
		return fmt.Errorf("storage: restore into a quantized (read-only) table")
	}
	s.pending.Wait()
	s.wbPending.Wait()
	s.stagedMu.Lock()
	s.staged = make(map[int]*stagedPartition)
	s.stagedMu.Unlock()
	// The checkpoint overwrites the whole table below, superseding any
	// retained failed write-backs; drop them and clear the sticky error.
	s.wbMu.Lock()
	for _, fw := range s.failed {
		s.stagedMu.Lock()
		s.putStageBufs(fw.data, fw.opt)
		s.stagedMu.Unlock()
	}
	s.failed = make(map[int]*failedWrite)
	s.wbErr = nil
	s.wbMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if table.Rows != s.pt.NumNodes || table.Cols != s.dim {
		return fmt.Errorf("storage: restore shape %dx%d into %dx%d store",
			table.Rows, table.Cols, s.pt.NumNodes, s.dim)
	}
	if err := writeFloats(s.f, 0, table.Data, &s.stats, s.throttle); err != nil {
		return err
	}
	if s.learnable && state != nil {
		if len(state) != s.pt.NumNodes {
			return fmt.Errorf("storage: restore %d optimizer rows into %d", len(state), s.pt.NumNodes)
		}
		if err := writeFloats(s.sf, 0, state, &s.stats, s.throttle); err != nil {
			return err
		}
	}
	for p, slot := range s.resident {
		base := slot * s.pt.PartSize * s.dim
		count := s.pt.Rows(p) * s.dim
		var opt []float32
		if s.learnable {
			opt = s.slotOpt[slot*s.pt.PartSize : slot*s.pt.PartSize+s.pt.Rows(p)]
		}
		if err := s.readPartition(p, s.slotData[base:base+count], opt); err != nil {
			return err
		}
		s.dirty[slot] = false
	}
	return nil
}

// Close flushes (including pending asynchronous write-backs) and closes
// the underlying files.
func (s *DiskNodeStore) Close() error {
	s.pending.Wait()
	err := s.Flush()
	if e := s.f.Close(); err == nil {
		err = e
	}
	if s.sf != nil {
		if e := s.sf.Close(); err == nil {
			err = e
		}
	}
	return err
}
