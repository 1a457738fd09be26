package storage

import (
	"repro/internal/obs"
)

// RegisterStats bridges a store's atomic IO counters into r as
// counter/gauge functions, labeled store=<store> so node and edge
// stores coexist in one registry. Values are read live at exposition
// time; nothing is added to the store's hot path.
func RegisterStats(r *obs.Registry, store string, st *Stats) {
	if r == nil || st == nil {
		return
	}
	l := obs.L("store", store)
	r.CounterFunc("storage_bytes_read_total", "Bytes read from backing files.",
		func() float64 { return float64(st.BytesRead.Load()) }, l)
	r.CounterFunc("storage_bytes_written_total", "Bytes written to backing files.",
		func() float64 { return float64(st.BytesWritten.Load()) }, l)
	r.CounterFunc("storage_reads_total", "Read operations issued.",
		func() float64 { return float64(st.Reads.Load()) }, l)
	r.CounterFunc("storage_writes_total", "Write operations issued.",
		func() float64 { return float64(st.Writes.Load()) }, l)
	r.CounterFunc("storage_swaps_total", "Partition buffer swaps.",
		func() float64 { return float64(st.Swaps.Load()) }, l)
	r.CounterFunc("storage_prefetch_hits_total", "Partitions admitted that a frame already held.",
		func() float64 { return float64(st.PrefetchHits.Load()) }, l)
	r.CounterFunc("storage_prefetch_misses_total", "Partitions admitted after waiting for their read.",
		func() float64 { return float64(st.PrefetchMisses.Load()) }, l)
	r.CounterFunc("storage_io_retries_total", "Transient IO errors absorbed by the bounded-backoff retry loop.",
		func() float64 { return float64(st.Retries.Load()) }, l)
	r.CounterFunc("storage_io_gaveup_total", "IO operations that exhausted the retry budget and surfaced the error.",
		func() float64 { return float64(st.Gaveup.Load()) }, l)
	r.GaugeFunc("storage_prefetch_hit_rate", "Prefetch hits / (hits + misses); 0 before any load.",
		func() float64 {
			h, m := st.PrefetchHits.Load(), st.PrefetchMisses.Load()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		}, l)
}

// Register bridges the fragment cache's hit/miss counters into r.
func (c *FragCache) Register(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	r.CounterFunc("storage_fragcache_hits_total", "CSR fragment cache hits.",
		func() float64 { return float64(c.hits.Load()) })
	r.CounterFunc("storage_fragcache_misses_total", "CSR fragment builds (cache misses).",
		func() float64 { return float64(c.misses.Load()) })
	r.GaugeFunc("storage_fragcache_hit_rate", "Fragment cache hits / lookups; 0 before any lookup.",
		func() float64 {
			h, m := c.hits.Load(), c.misses.Load()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})
	r.GaugeFunc("storage_fragcache_entries", "Fragments currently cached.",
		func() float64 {
			c.mu.Lock()
			n := len(c.frags)
			c.mu.Unlock()
			return float64(n)
		})
}

// SetTracer attaches a span recorder to the store: each write-back of a
// dirty partition whose frame is reused emits a ("storage",
// "evict_writeback") span. Call
// before training starts; passing nil disables spans.
func (s *DiskNodeStore) SetTracer(t *obs.Tracer) {
	s.tracer.Store(t)
}
