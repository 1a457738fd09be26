package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// traceEpoch builds an Epoch over nVisits × batchesPer that records the
// exact callback sequence seen by the compute side and counts everything.
type traceEpoch struct {
	mu       sync.Mutex
	events   []string // in compute order: admit/compute entries
	loads    []int    // visit order seen by Load
	released atomic.Int64
	inFlight atomic.Int64 // batches built but not yet consumed
	maxIn    atomic.Int64
}

func (te *traceEpoch) epoch(nVisits, batchesPer int, buildDelay func(vi, bi int) time.Duration) Epoch[int, string] {
	return Epoch[int, string]{
		NumVisits: nVisits,
		Load: func(vi int) (int, error) {
			te.mu.Lock()
			te.loads = append(te.loads, vi)
			te.mu.Unlock()
			return vi, nil
		},
		Admit: func(vi int, v int) error {
			te.mu.Lock()
			te.events = append(te.events, fmt.Sprintf("admit %d", v))
			te.mu.Unlock()
			return nil
		},
		NumBatches: func(v int) int { return batchesPer },
		Build: func(w int, v int, bi int) (string, error) {
			if buildDelay != nil {
				time.Sleep(buildDelay(v, bi))
			}
			in := te.inFlight.Add(1)
			for {
				max := te.maxIn.Load()
				if in <= max || te.maxIn.CompareAndSwap(max, in) {
					break
				}
			}
			return fmt.Sprintf("b%d.%d", v, bi), nil
		},
		Compute: func(v int, bi int, b string) error {
			te.inFlight.Add(-1)
			te.mu.Lock()
			te.events = append(te.events, b)
			te.mu.Unlock()
			return nil
		},
		Release: func(v int) { te.released.Add(1) },
	}
}

func wantEvents(nVisits, batchesPer int) []string {
	var want []string
	for v := 0; v < nVisits; v++ {
		want = append(want, fmt.Sprintf("admit %d", v))
		for b := 0; b < batchesPer; b++ {
			want = append(want, fmt.Sprintf("b%d.%d", v, b))
		}
	}
	return want
}

// Every (depth, workers) combination must deliver the identical ordered
// event sequence: admit visits in plan order, compute batches in batch
// order — the determinism contract the trainers rely on.
func TestOrderingInvariantAcrossConfigs(t *testing.T) {
	const nVisits, batchesPer = 5, 7
	want := wantEvents(nVisits, batchesPer)
	for _, cfg := range []Config{
		{Depth: 0, Workers: 1},
		{Depth: 0, Workers: 4},
		{Depth: 1, Workers: 1},
		{Depth: 2, Workers: 3},
		{Depth: 4, Workers: 8},
	} {
		te := &traceEpoch{}
		// Scrambled build latencies try hard to reorder the pipeline
		// (goroutine-safe: pure function of the batch coordinates).
		delay := func(vi, bi int) time.Duration {
			return time.Duration((vi*37+bi*101)%7) * 50 * time.Microsecond
		}
		var st Stats
		if err := Run(context.Background(), cfg, te.epoch(nVisits, batchesPer, delay), &st); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(te.events) != len(want) {
			t.Fatalf("cfg %+v: %d events, want %d", cfg, len(te.events), len(want))
		}
		for i := range want {
			if te.events[i] != want[i] {
				t.Fatalf("cfg %+v: event[%d] = %q, want %q\nfull: %v", cfg, i, te.events[i], want[i], te.events)
			}
		}
		for i, v := range te.loads {
			if v != i {
				t.Fatalf("cfg %+v: loads out of order: %v", cfg, te.loads)
			}
		}
		if got := te.released.Load(); got != nVisits {
			t.Fatalf("cfg %+v: released %d visits, want %d", cfg, got, nVisits)
		}
		if st.VisitsLoaded != nVisits {
			t.Fatalf("cfg %+v: stats loaded %d, want %d", cfg, st.VisitsLoaded, nVisits)
		}
	}
}

// The queue is bounded: no more than Workers+Depth batches may be built
// but unconsumed, even when builders are much faster than compute.
func TestBoundedQueue(t *testing.T) {
	cfg := Config{Depth: 2, Workers: 3}
	te := &traceEpoch{}
	ep := te.epoch(3, 40, nil)
	inner := ep.Compute
	ep.Compute = func(v int, bi int, b string) error {
		time.Sleep(500 * time.Microsecond) // slow consumer
		return inner(v, bi, b)
	}
	if err := Run(context.Background(), cfg, ep, nil); err != nil {
		t.Fatal(err)
	}
	limit := int64(cfg.Workers + cfg.Depth)
	if got := te.maxIn.Load(); got > limit {
		t.Fatalf("max %d batches in flight, want <= %d", got, limit)
	}
}

// The prefetcher genuinely runs ahead: with Depth=2 and a slow consumer,
// Load(vi+1) must complete before Compute of visit vi finishes.
func TestPrefetcherRunsAhead(t *testing.T) {
	const nVisits = 4
	loadDone := make([]atomic.Bool, nVisits)
	overlapped := atomic.Bool{}
	ep := Epoch[int, int]{
		NumVisits: nVisits,
		Load: func(vi int) (int, error) {
			loadDone[vi].Store(true)
			return vi, nil
		},
		Admit:      func(vi int, v int) error { return nil },
		NumBatches: func(v int) int { return 1 },
		Build:      func(w, v, bi int) (int, error) { return v, nil },
		Compute: func(v int, bi int, b int) error {
			// Give the prefetcher time, then check it got ahead.
			time.Sleep(5 * time.Millisecond)
			if v+1 < nVisits && loadDone[v+1].Load() {
				overlapped.Store(true)
			}
			return nil
		},
	}
	if err := Run(context.Background(), Config{Depth: 2, Workers: 1}, ep, nil); err != nil {
		t.Fatal(err)
	}
	if !overlapped.Load() {
		t.Fatal("prefetcher never loaded visit vi+1 while visit vi was computing")
	}
}
