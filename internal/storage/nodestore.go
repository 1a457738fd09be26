package storage

import (
	"cmp"
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
//
// The store is a shell around buffer, which alone decides each
// partition's life-cycle: every method asks it for the next transition
// and performs the IO that transition returns. Reads for prefetch and
// dirty evictions' write-backs run on background goroutines, so the IO
// stays off the trainer's critical path and outside the lock.
type DiskNodeStore struct {
	pt        partition.Partitioning
	dim       int
	learnable bool

	f  fault.File
	sf fault.File // per-node AdaGrad accumulators; nil when not learnable

	// mu guards b, the slots, the buffers and err; ioDone is signalled
	// each time a read or a write-back completes.
	mu     sync.RWMutex
	ioDone *sync.Cond
	b      *buffer
	// A slot, like a buffer, is one region of stride floats: PartSize×dim
	// representation rows, then the rows' AdaGrad accumulators when
	// learnable. slots holds capacity of them; bufs holds each
	// partition's staging or write-back buffer, nil while its phase holds
	// none; pool recycles buffers, at most capacity of them so it stays
	// small however far a pipeline prefetches.
	stride     int
	slots      []float32
	bufs, pool [][]float32
	// err latches the first failed write-back. LoadSet surfaces it until
	// a Flush lands every write (or Restore replaces the table).
	err error

	// Quantized (read-only) tables: the file holds quant-encoded
	// elements; partitionIO moves only the compressed bytes across the
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

// newDiskNodeStore builds the in-memory store state (empty buffer, every
// slot free) over an already-open table file.
func newDiskNodeStore(cfg DiskStoreConfig, f fault.File) *DiskNodeStore {
	s := &DiskNodeStore{
		pt:        cfg.Part,
		dim:       cfg.Dim,
		learnable: cfg.Learnable,
		f:         f,
		b:         newBuffer(cfg.Part.NumPartitions, cfg.Capacity),
		stride:    cfg.Part.PartSize * cfg.Dim,
		bufs:      make([][]float32, cfg.Part.NumPartitions),
		quant:     cfg.Quant,
		throttle:  cfg.Throttle,
	}
	if cfg.Learnable {
		s.stride += cfg.Part.PartSize
	}
	s.slots = make([]float32, cfg.Capacity*s.stride)
	s.ioDone = sync.NewCond(&s.mu)
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
	buf := make([]float32, cfg.Part.PartSize*cfg.Dim)
	for p := 0; p < cfg.Part.NumPartitions; p++ {
		start, end := cfg.Part.Range(p)
		clear(buf)
		for id := start; cfg.Init != nil && id < end; id++ {
			cfg.Init(id, buf[int(id-start)*cfg.Dim:][:cfg.Dim])
		}
		if err := writeFloats(f, int64(start)*int64(cfg.Dim)*4, buf[:int(end-start)*cfg.Dim], nil, nil); err != nil {
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
		s.qscale, s.qzero = make([]float32, cfg.Part.NumNodes), make([]float32, cfg.Part.NumNodes)
		if err := readScales(fsys, cfg.ScalePath, s.qscale, s.qzero); err != nil {
			f.Close()
			return nil, err
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
func (s *DiskNodeStore) Capacity() int { return len(s.b.owner) }

// Resident returns the sorted list of partitions currently buffered.
func (s *DiskNodeStore) Resident() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, s.Capacity())
	for p := range s.b.parts {
		if s.b.slotOf(p) >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// partitionIO reads partition p from disk into region, or writes region
// to disk, in the slot and buffer layout (see stride).
func (s *DiskNodeStore) partitionIO(p int, region []float32, write bool) error {
	start, end := s.pt.Range(p)
	data := region[:int(end-start)*s.dim]
	rw, verb := readFloats, "read"
	switch {
	case s.quant != tensor.QuantNone && write:
		// Quantized tables are fixed at ingest; nothing marks them dirty.
		return fmt.Errorf("storage: write partition %d: quantized table is read-only", p)
	case s.quant != tensor.QuantNone:
		if err := s.readQuantRows(start, end, data); err != nil {
			return fmt.Errorf("storage: read partition %d: %w", p, err)
		}
		return nil
	case write:
		rw, verb = writeFloats, "write"
	}
	if err := rw(s.f, int64(start)*int64(s.dim)*4, data, &s.stats, s.throttle); err != nil {
		return fmt.Errorf("storage: %s partition %d: %w", verb, p, err)
	}
	if s.learnable {
		opt := region[s.pt.PartSize*s.dim:][:end-start]
		if err := rw(s.sf, int64(start)*4, opt, &s.stats, s.throttle); err != nil {
			return fmt.Errorf("storage: %s opt state %d: %w", verb, p, err)
		}
	}
	return nil
}

// readQuantRows reads the compressed bytes of rows [start, end) in one
// read — only the compressed size crosses the device (and counts toward
// Stats and the Throttle; that is the partition-swap IO the quantization
// saves) — and dequantizes row by row into data. Dequantization is a pure
// element-wise function of bytes fixed at ingest, so the rows are
// identical on every load, worker count, and run.
func (s *DiskNodeStore) readQuantRows(start, end int32, data []float32) error {
	eb := s.quant.ElemBytes()
	bp := getReadBuf(int(end-start) * s.dim * eb)
	defer readBufs.Put(bp)
	raw := *bp
	off := int64(start) * int64(s.dim) * int64(eb)
	if err := readBytes(s.f, off, raw, &s.stats, s.throttle); err != nil {
		return err
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

// slot returns slot i's region.
func (s *DiskNodeStore) slot(i int) []float32 { return s.slots[i*s.stride:][:s.stride] }

// do performs the in-memory part of o for partition p; the caller holds
// mu. Disk reads and write-backs are the caller's, to run outside the
// lock where they can.
func (s *DiskNodeStore) do(p int, o op) {
	if o.io&(ioRead|ioCopyOut) != 0 {
		if k := len(s.pool); k > 0 {
			s.bufs[p], s.pool = s.pool[k-1], s.pool[:k-1]
		} else {
			s.bufs[p] = make([]float32, s.stride)
		}
	}
	switch {
	case o.io&ioCopyOut != 0:
		copy(s.bufs[p], s.slot(o.slot))
	case o.io&ioCopyIn != 0:
		copy(s.slot(o.slot), s.bufs[p])
	}
	if o.io&ioFree != 0 {
		if len(s.pool) < s.Capacity() {
			s.pool = append(s.pool, s.bufs[p])
		}
		s.bufs[p] = nil
	}
}

// transfer reads partition p from disk into region (its buffer or its
// reserved slot), or writes its buffer region back, and records the IO's
// end; the caller must not hold mu. A write-back emits a span on tr (nil:
// none), and its failure latches err.
func (s *DiskNodeStore) transfer(p int, region []float32, write bool, tr *obs.Tracer) error {
	t0 := time.Now()
	err := s.partitionIO(p, region, write)
	tr.Span("storage", "evict_writeback", obs.TIDEvict, t0, time.Since(t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.b.stageDone
	if write {
		s.err, end = cmp.Or(s.err, err), s.b.endWriteback
	}
	s.do(p, end(p, err == nil))
	s.ioDone.Broadcast()
	return err
}

// Prefetch begins loading the given partitions into staging memory in the
// background (paper Fig. 2 step A: the buffer and IO manager prefetch the
// next partition set while training proceeds on the current one). Only
// partitions with no copy in memory are read; a later LoadSet consumes
// the staged bytes and recycles the buffers. Safe to call concurrently
// with reads and with LoadSet (the pipeline prefetcher runs it ahead of
// the trainer).
func (s *DiskNodeStore) Prefetch(parts []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range parts {
		if o := s.b.stage(p); o.io != 0 {
			s.do(p, o)
			go s.transfer(p, s.bufs[p], false, nil)
		}
	}
}

// LoadSet swaps the buffer so that exactly the partitions in parts are
// resident, writing back dirty evicted partitions in the background and
// serving each load from the newest copy in memory (a staged read or an
// in-flight write-back) before reading the disk. len(parts) must not
// exceed the buffer capacity. A failed read leaves the buffer consistent:
// the error is returned and a later LoadSet may retry.
func (s *DiskNodeStore) LoadSet(parts []int) error {
	if len(parts) > s.Capacity() {
		return fmt.Errorf("storage: set of %d partitions exceeds capacity %d", len(parts), s.Capacity())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	for {
		p, from, o, done := s.b.swap(parts)
		switch {
		case done:
			return nil
		case p < 0:
			s.ioDone.Wait()
			continue
		case from == clean || from == dirty:
			s.stats.Swaps.Add(1)
		case from == absent || from == staging:
			// The read lands on the critical path: a synchronous one, or
			// a prefetch still in flight.
			s.stats.PrefetchMisses.Add(1)
		default:
			s.stats.PrefetchHits.Add(1)
		}
		s.do(p, o)
		switch {
		case o.io&ioReload != 0:
			slot := s.slot(o.slot)
			s.mu.Unlock()
			err := s.transfer(p, slot, false, nil)
			s.mu.Lock()
			if err != nil {
				return err
			}
		case o.io&ioWrite != 0:
			go s.transfer(p, s.bufs[p], true, s.tracer.Load())
		}
	}
}

// rowSlice returns the in-buffer representation row for node id and the
// index of its accumulator in slots; the caller must hold mu.
func (s *DiskNodeStore) rowSlice(id int32) ([]float32, int, error) {
	p := s.pt.Of(id)
	slot := s.b.slotOf(p)
	if slot < 0 {
		return nil, 0, fmt.Errorf("storage: node %d in partition %d is not resident", id, p)
	}
	start, _ := s.pt.Range(p)
	r, base := int(id-start), slot*s.stride
	return s.slots[base+r*s.dim:][:s.dim], base + s.pt.PartSize*s.dim + r, nil
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
		s.slots[idx] = opt.StepRow(row, grads.Row(i), s.slots[idx])
		s.b.dirty(s.pt.Of(id))
	}
	return nil
}

// Flush waits for in-flight reads and write-backs, then writes back every
// retained failed write-back and every dirty resident partition, in
// ascending partition order, so on return every update is durable. Once
// all of them land the latched write-back error clears and the store is
// fully consistent again.
func (s *DiskNodeStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.b.busy() {
		s.ioDone.Wait()
	}
	var err error
	for p := range s.b.parts {
		if o := s.b.beginWriteback(p); o.io != 0 {
			s.do(p, o)
			buf := s.bufs[p]
			s.mu.Unlock()
			e := s.transfer(p, buf, true, nil)
			s.mu.Lock()
			err = cmp.Or(err, e)
		}
	}
	if err == nil {
		s.err = nil
	}
	return err
}

// ReadAll returns the entire table as a tensor (for full-graph evaluation
// and Snapshot). Dirty resident partitions are flushed first, so every
// update is durable; then resident partitions are copied from their slots
// and only the others are read from disk, one read per run of consecutive
// absent partitions. The buffer state is unaffected, and holds still
// while ReadAll reads.
func (s *DiskNodeStore) ReadAll() (*tensor.Tensor, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	t := tensor.New(s.pt.NumNodes, s.dim)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for p := 0; p < s.pt.NumPartitions; {
		start, end := s.pt.Range(p)
		if slot := s.b.slotOf(p); slot >= 0 {
			copy(t.Data[int(start)*s.dim:int(end)*s.dim], s.slot(slot))
			p++
			continue
		}
		for p++; p < s.pt.NumPartitions && s.b.slotOf(p) < 0; p++ {
			_, end = s.pt.Range(p)
		}
		if start == end {
			continue // empty trailing partitions: nothing to read
		}
		rows := t.Data[int(start)*s.dim : int(end)*s.dim]
		var err error
		if s.quant != tensor.QuantNone {
			err = s.readQuantRows(start, end, rows)
		} else {
			err = readFloats(s.f, int64(start)*int64(s.dim)*4, rows, &s.stats, s.throttle)
		}
		if err != nil {
			return nil, fmt.Errorf("storage: read nodes [%d, %d): %w", start, end, err)
		}
	}
	return t, nil
}

// Snapshot implements NodeStore: the full table comes from ReadAll
// (flushed, resident partitions served from the buffer), then for
// learnable stores the per-row AdaGrad accumulators are read back from
// disk.
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
// overwritten, superseding any staged copies and retained write-backs,
// and resident partitions are re-read so the buffer reflects the restored
// state. A restore of the wrong shape is rejected before anything
// changes. The lock is held across the writes so no prefetch reads a
// half-restored table.
func (s *DiskNodeStore) Restore(table *tensor.Tensor, state []float32) error {
	switch {
	case s.quant != tensor.QuantNone:
		// Never reached in practice: only learnable tables are
		// checkpointed with contents, and quantized stores are read-only.
		return fmt.Errorf("storage: restore into a quantized (read-only) table")
	case table.Rows != s.pt.NumNodes || table.Cols != s.dim:
		return fmt.Errorf("storage: restore shape %dx%d into %dx%d store",
			table.Rows, table.Cols, s.pt.NumNodes, s.dim)
	case s.learnable && state != nil && len(state) != s.pt.NumNodes:
		return fmt.Errorf("storage: restore %d optimizer rows into %d", len(state), s.pt.NumNodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.b.busy() {
		s.ioDone.Wait()
	}
	if err := writeFloats(s.f, 0, table.Data, &s.stats, s.throttle); err != nil {
		return err
	}
	if s.learnable && state != nil {
		if err := writeFloats(s.sf, 0, state, &s.stats, s.throttle); err != nil {
			return err
		}
	}
	s.err = nil
	for p := range s.b.parts {
		o := s.b.drop(p)
		s.do(p, o)
		if o.io&ioReload != 0 {
			if err := s.partitionIO(p, s.slot(o.slot), false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes (waiting for every in-flight read and write-back) and
// closes the underlying files.
func (s *DiskNodeStore) Close() error {
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
