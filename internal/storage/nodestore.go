package storage

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// (paper Fig. 2 step 6). ids may repeat when opt.Workers is at most 1;
	// above that, rows step concurrently and ids must be distinct, as
	// DENSE's node IDs are.
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
// (the M-GNN_Mem configuration). It holds either a float32 table,
// learnable or fixed, or a quantized feature table kept as stored: half
// (fp16) or a quarter (int8) of the float32 bytes, dequantized row by row
// on Gather. Dequantization is a pure function of bytes fixed at ingest,
// so a gather from the quantized form equals a gather from its
// dequantized float32 table bit for bit. Only a learnable table keeps
// per-row AdaGrad accumulators; a fixed or quantized one holds none and is
// read-only: ApplyGrads and Restore refuse it.
type MemoryNodeStore struct {
	mu    sync.RWMutex
	table *tensor.Tensor // nil when q holds the table
	q     *tensor.QTable
	state []float32 // nil when the table is read-only
	rows  resolved
}

// resolved is an ApplyGrads' rows, all located before any is stepped: row
// i's offset in the table and its accumulator's index (nn.StepRows). A
// store reuses it under its lock.
type resolved struct{ rowAt, stateAt []int }

func (r *resolved) reset() { r.rowAt, r.stateAt = r.rowAt[:0], r.stateAt[:0] }

func (r *resolved) add(row, state int) {
	r.rowAt, r.stateAt = append(r.rowAt, row), append(r.stateAt, state)
}

// NewMemoryNodeStore wraps a float32 table (used directly, not copied).
// A learnable table gets one sparse-AdaGrad accumulator per row, as
// DiskStoreConfig.Learnable does on disk; a fixed one is read-only.
func NewMemoryNodeStore(table *tensor.Tensor, learnable bool) *MemoryNodeStore {
	m := &MemoryNodeStore{table: table}
	if learnable {
		m.state = make([]float32, table.Rows)
	}
	return m
}

// NewQuantMemoryNodeStore wraps a quantized table (used directly, not
// copied) as a read-only store.
func NewQuantMemoryNodeStore(q *tensor.QTable) *MemoryNodeStore {
	return &MemoryNodeStore{q: q}
}

// errReadOnly refuses writes into a fixed or quantized table.
var errReadOnly = errors.New("storage: node table is read-only")

// Dim implements NodeStore.
func (m *MemoryNodeStore) Dim() int {
	if m.q != nil {
		return m.q.Cols
	}
	return m.table.Cols
}

// NumNodes implements NodeStore.
func (m *MemoryNodeStore) NumNodes() int {
	if m.q != nil {
		return m.q.Rows
	}
	return m.table.Rows
}

// Table returns the underlying float32 tensor (for full-ranking
// evaluation), or nil when the store holds a quantized table.
func (m *MemoryNodeStore) Table() *tensor.Tensor { return m.table }

// Gather implements NodeStore.
func (m *MemoryNodeStore) Gather(ids []int32, out *tensor.Tensor) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.q != nil {
		tensor.GatherDequantInto(out, m.q, ids)
		return nil
	}
	d := m.table.Cols
	for i, id := range ids {
		copy(out.Data[i*d:(i+1)*d], m.table.Row(int(id)))
	}
	return nil
}

// ApplyGrads implements NodeStore.
func (m *MemoryNodeStore) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	if m.state == nil {
		return errReadOnly
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows.reset()
	for _, id := range ids {
		m.rows.add(int(id)*m.table.Cols, int(id))
	}
	opt.StepRows(m.table.Data, m.rows.rowAt, m.state, m.rows.stateAt, grads)
	return nil
}

// Snapshot implements NodeStore. A quantized table snapshots as its
// dequantized float32 form; a read-only table carries no optimizer state.
func (m *MemoryNodeStore) Snapshot() (*tensor.Tensor, []float32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.q != nil {
		return m.q.Dequant(), nil, nil
	}
	return m.table.Clone(), append([]float32(nil), m.state...), nil
}

// Restore implements NodeStore.
func (m *MemoryNodeStore) Restore(table *tensor.Tensor, state []float32) error {
	if m.state == nil {
		return errReadOnly
	}
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

// DiskNodeStore pages node representations between a file and
// min(2c+1, p) frames of partition memory, c being the buffer capacity
// (the M-GNN_Disk configuration, paper Fig. 2 storage layer): the up to c
// partitions a visit trains on are resident, and the store holds up to 2c
// partitions, so one a later visit uses again is not read twice. The
// frame left over is the landing frame: a swap's read lands in it while
// the previous visit still computes on its victim, which is evicted
// (written back first if dirty) once that visit is released. Optimizer
// state for learnable representations is persisted in a sibling file.
//
// The store is a shell around buffer, which alone decides each
// partition's life-cycle, and around run, the schedule compiled from the
// visits Plan announces: one IO goroutine performs its reads and
// evictions in order, ahead of the trainer as far as the frames allow,
// and LoadSet waits only for the reads its visit needs, never for a
// write-back. A LoadSet outside a plan is a plan of one visit.
type DiskNodeStore struct {
	pt        partition.Partitioning
	dim       int
	learnable bool
	capacity  int

	f  fault.File
	sf fault.File // per-node AdaGrad accumulators; nil when not learnable

	// mu guards b, run, running, last and err; ioDone is signalled each
	// time the IO goroutine moves, ends, or may proceed.
	mu     sync.RWMutex
	ioDone *sync.Cond
	b      *buffer
	run    *run
	// running is set while run's IO goroutine is alive.
	running bool
	// last is the set the previous LoadSet admitted, for the hit and miss
	// counters.
	last []int
	// A frame is one region of stride floats: PartSize×dim representation
	// rows, then the rows' AdaGrad accumulators when learnable. frames
	// holds min(2c+1, p) of them, the store's only partition memory.
	stride int
	frames []float32
	// err latches the first failed write-back. The next LoadSet and every
	// one after it surface it until a Flush lands every write (or Restore
	// replaces the table).
	err error
	// rows is ApplyGrads' scratch.
	rows resolved

	// Quantized (read-only) tables: the file holds quant-encoded
	// elements; partitionIO moves only the compressed bytes across the
	// (simulated) device and dequantizes into the float32 frame. For
	// int8, qscale/qzero hold the per-node affine parameters from the
	// sidecar, loaded fully at open (8 bytes per node).
	quant  tensor.QuantKind
	qscale []float32
	qzero  []float32

	stats    Stats
	throttle *Throttle
	tracer   atomic.Pointer[obs.Tracer] // write-back spans; nil = off
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
	// pass a fault.Injector.
	FS fault.FS
}

// newDiskNodeStore builds the in-memory store state (every frame free)
// over an already-open table file.
func newDiskNodeStore(cfg DiskStoreConfig, f fault.File) *DiskNodeStore {
	frames := min(2*cfg.Capacity+1, cfg.Part.NumPartitions)
	s := &DiskNodeStore{
		pt:        cfg.Part,
		dim:       cfg.Dim,
		learnable: cfg.Learnable,
		capacity:  cfg.Capacity,
		f:         f,
		b:         newBuffer(cfg.Part.NumPartitions, frames),
		stride:    cfg.Part.PartSize * cfg.Dim,
		quant:     cfg.Quant,
		throttle:  cfg.Throttle,
	}
	if cfg.Learnable {
		s.stride += cfg.Part.PartSize
	}
	s.b.hold = min(2*cfg.Capacity, cfg.Part.NumPartitions)
	s.frames = make([]float32, frames*s.stride)
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

// Capacity returns the buffer capacity c in physical partitions: the most
// one LoadSet admits. The store holds up to 2c partitions in memory, and
// one more while a swap's read has landed and its victim is not yet
// evicted.
func (s *DiskNodeStore) Capacity() int { return s.capacity }

// Resident returns the sorted list of partitions LoadSet last admitted.
func (s *DiskNodeStore) Resident() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, s.capacity)
	for p := range s.b.parts {
		if s.b.frameOf(p) >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// partitionIO reads partition p from disk into region, or writes region
// to disk, in the frame layout (see stride).
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
	bp := getIOBuf(int(end-start) * s.dim * eb)
	defer ioBufs.Put(bp)
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

// frame returns frame i's region.
func (s *DiskNodeStore) frame(i int) []float32 { return s.frames[i*s.stride:][:s.stride] }

// Plan hands the store the partition sets the next LoadSet calls admit,
// in order (an epoch's walked visits), and starts their IO at once,
// compiled from them and the partitions held now: each partition is read
// as few times as 2c held partitions allow, and a dirty one is written
// back only when it is evicted to free a frame. No partition is resident
// until the first set is admitted. A nil plan ends a pending one once the
// evictions its reads owe have landed (all of them at the end of an
// epoch, so each epoch's IO is its own), and drops the rest, as an
// aborted epoch must; a set larger than the capacity drops the plan, and
// its LoadSet fails.
func (s *DiskNodeStore) Plan(sets [][]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop()
	s.run = nil
	if sets != nil && !slices.ContainsFunc(sets, func(set []int) bool { return len(set) > s.capacity }) {
		s.start(sets)
	}
}

// start compiles sets from the buffer as it is and starts the IO
// goroutine; the caller holds mu and has stopped any earlier run.
func (s *DiskNodeStore) start(sets [][]int) *run {
	s.b.pin(nil)
	r := newRun(s.b, sets, s.learnable)
	s.run = r
	if len(r.ops) > 0 {
		s.running = true
		go s.runIO(r)
	}
	return r
}

// stop ends the current run's IO once its IO in flight has landed and
// every eviction owed by a read begun that may start has ended; the
// caller holds mu.
func (s *DiskNodeStore) stop() {
	if s.run != nil {
		s.run.stopped = true
		s.ioDone.Broadcast()
	}
	for s.running {
		s.ioDone.Wait()
	}
}

// runIO is r's IO goroutine: it performs r's reads and evictions, each
// transfer outside the lock, until the run ends. A failed write-back also
// latches err.
func (s *DiskNodeStore) runIO(r *run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		s.running = false
		s.ioDone.Broadcast()
	}()
	for {
		p, o, wait, end := r.step(s.b)
		switch {
		case end:
			return
		case wait:
			s.ioDone.Wait()
			continue
		}
		write := o.io == ioWrite
		if !write && r.ops[r.read-1].victim >= 0 {
			s.stats.Swaps.Add(1)
		}
		region := s.frame(o.frame)
		s.mu.Unlock()
		t0 := time.Now()
		err := s.partitionIO(p, region, write)
		if write {
			s.tracer.Load().Span("storage", "evict_writeback", obs.TIDEvict, t0, time.Since(t0))
		}
		s.mu.Lock()
		if write {
			s.err = cmp.Or(s.err, err)
		}
		r.landed(s.b, p, write, err)
		s.ioDone.Broadcast()
	}
}

// LoadSet makes exactly the partitions in parts resident. Within a plan it
// releases the previous set, so evictions waiting for its partitions may
// start, and waits only for the reads this visit needs; any other set is
// a plan of one visit. len(parts) must not exceed the capacity. A failed
// read leaves the buffer consistent: the error is returned, and a later
// LoadSet of the same set retries it, resuming the plan.
func (s *DiskNodeStore) LoadSet(parts []int) error {
	if len(parts) > s.capacity {
		return fmt.Errorf("storage: set of %d partitions exceeds capacity %d", len(parts), s.capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	r := s.run
	if !r.next(parts) {
		rest := [][]int{parts}
		if r != nil && r.visit < len(r.sets) && slices.Equal(r.sets[r.visit], parts) {
			rest = r.sets[r.visit:] // a failed or stopped run resumes its plan
		}
		s.stop()
		if s.err != nil {
			return s.err // a write-back the stopped run owed failed
		}
		r = s.start(rest)
	}
	d := r.release(s.b)
	s.ioDone.Broadcast()
	var hits, misses int64
	for _, p := range parts {
		switch {
		case slices.Contains(s.last, p):
		case s.b.parts[p].held():
			hits++
		default:
			misses++
		}
	}
	for {
		ok, err := r.admit(s.b, d)
		switch {
		case ok:
			s.stats.PrefetchHits.Add(hits)
			s.stats.PrefetchMisses.Add(misses)
			s.last = append(s.last[:0], parts...)
			return nil
		case err != nil:
			return err
		}
		s.ioDone.Wait()
	}
}

// rowAt returns where node id's representation row starts in frames and
// the index of its accumulator there; the caller must hold mu.
func (s *DiskNodeStore) rowAt(id int32) (int, int, error) {
	p := s.pt.Of(id)
	f := s.b.frameOf(p)
	if f < 0 {
		return 0, 0, fmt.Errorf("storage: node %d in partition %d is not resident", id, p)
	}
	start, _ := s.pt.Range(p)
	r, base := int(id-start), f*s.stride
	return base + r*s.dim, base + s.pt.PartSize*s.dim + r, nil
}

// Gather implements NodeStore.
func (s *DiskNodeStore) Gather(ids []int32, out *tensor.Tensor) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, id := range ids {
		at, _, err := s.rowAt(id)
		if err != nil {
			return err
		}
		copy(out.Data[i*s.dim:(i+1)*s.dim], s.frames[at:at+s.dim])
	}
	return nil
}

// ApplyGrads implements NodeStore. It is all or nothing: every row is
// located before any is stepped, so a non-resident id leaves the table,
// the accumulators and the dirty set as they were.
func (s *DiskNodeStore) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	if !s.learnable {
		return fmt.Errorf("storage: ApplyGrads on a read-only store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows.reset()
	for _, id := range ids {
		row, st, err := s.rowAt(id)
		if err != nil {
			return err
		}
		s.rows.add(row, st)
	}
	for _, id := range ids {
		s.b.dirty(s.pt.Of(id))
	}
	opt.StepRows(s.frames, s.rows.rowAt, s.frames, s.rows.stateAt, grads)
	return nil
}

// Flush stops a pending plan as stop does, then writes back every dirty
// partition, in ascending partition order, so on return every update is
// durable; the frames keep their copies. Once all of them land the
// latched write-back error clears and the store is fully consistent
// again. A later LoadSet of the plan's next set resumes it.
func (s *DiskNodeStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop()
	if err := s.writeBack(); err != nil {
		return err
	}
	s.err = nil
	return nil
}

// writeBack writes every dirty partition back; the caller holds mu and has
// stopped the run.
func (s *DiskNodeStore) writeBack() error {
	var err error
	for p := range s.b.parts {
		if o := s.b.beginWriteback(p); o.io != 0 {
			e := s.partitionIO(p, s.frame(o.frame), true)
			s.b.endWriteback(p, e == nil)
			err = cmp.Or(err, e)
		}
	}
	return err
}

// ReadAll returns the entire table as a tensor (for Snapshot). Dirty
// partitions are flushed first, so every update is durable; then every
// partition a frame holds is copied from it and only the others are read
// from disk, one read per run of consecutive absent partitions. The
// frames are unaffected, and hold still while ReadAll reads.
func (s *DiskNodeStore) ReadAll() (*tensor.Tensor, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	t := tensor.New(s.pt.NumNodes, s.dim)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for p := 0; p < s.pt.NumPartitions; {
		start, end := s.pt.Range(p)
		if st := s.b.parts[p]; st.held() {
			copy(t.Data[int(start)*s.dim:int(end)*s.dim], s.frame(st.frame))
			p++
			continue
		}
		for p++; p < s.pt.NumPartitions && !s.b.parts[p].held(); p++ {
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

// MemoryView returns the whole table as a read-only in-memory store, the
// view evaluation reads. A quantized table stays as stored: its
// compressed bytes cross the throttle in one read, and Gather
// dequantizes rows as the in-memory dataset store does, bit for bit. A
// float32 table is ReadAll's copy.
func (s *DiskNodeStore) MemoryView() (*MemoryNodeStore, error) {
	if s.quant == tensor.QuantNone {
		t, err := s.ReadAll()
		if err != nil {
			return nil, err
		}
		return NewMemoryNodeStore(t, false), nil
	}
	q := &tensor.QTable{Kind: s.quant, Rows: s.pt.NumNodes, Cols: s.dim, Scale: s.qscale, Zero: s.qzero,
		Raw: make([]byte, s.pt.NumNodes*s.dim*s.quant.ElemBytes())}
	if err := readBytes(s.f, 0, q.Raw, &s.stats, s.throttle); err != nil {
		return nil, fmt.Errorf("storage: read quantized table: %w", err)
	}
	return NewQuantMemoryNodeStore(q), nil
}

// Snapshot implements NodeStore: the full table comes from ReadAll
// (flushed, held partitions copied from their frames), then for
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

// Restore implements NodeStore: a pending plan is stopped, the on-disk
// table (and accumulators) are overwritten, superseding every frame's
// copy and the latched write-back error, and every held frame takes the
// restored rows (and accumulators) from table and state, so nothing is
// read back. Without state the accumulators stay the store's: dirty
// partitions are written back first, so every frame's equal the disk's. A
// restore of the wrong shape is rejected before anything changes.
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
	s.stop()
	if s.learnable && state == nil {
		if err := s.writeBack(); err != nil {
			return err
		}
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
		if o := s.b.drop(p); o.io != 0 {
			start, end := s.pt.Range(p)
			region := s.frame(o.frame)
			copy(region, table.Data[int(start)*s.dim:int(end)*s.dim])
			if s.learnable && state != nil {
				copy(region[s.pt.PartSize*s.dim:], state[start:end])
			}
		}
	}
	return nil
}

// Close flushes (stopping a pending plan) and closes the underlying files.
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
