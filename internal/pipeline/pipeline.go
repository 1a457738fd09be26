// Package pipeline implements MariusGNN's pipelined epoch execution
// (paper Fig. 2, steps A-D): a bounded, multi-stage executor that
// overlaps partition IO, mini-batch construction, and model compute so
// the compute stage never stalls on the disk.
//
// An epoch is described as three produce/consume stages over an ordered
// visit plan, and every epoch runs them the same way:
//
//  1. Load — one loader goroutine walks the plan in order, performing the
//     visit-level IO (edge-bucket reads, async node-partition staging)
//     and CPU preparation (adjacency construction, shuffling, batch-seed
//     derivation). It holds at most Depth+1 visits loaded and not yet
//     released, so Load(vi) starts only once visit vi-Depth-1 is
//     released. Because one goroutine runs every Load in plan order,
//     Load callbacks may carry sequential state across visits.
//  2. Build — batch construction. Workers builder goroutines, alive for
//     the whole epoch, sample mini batches (DENSE multi-hop sampling,
//     negative sampling) of the admitted visit, at most Workers+Depth
//     batches building or built and not yet consumed.
//  3. Compute — the trainer. The caller's goroutine admits each visit
//     (partition-buffer swap), consumes its batches in strict
//     (visit, batch) order, and releases it.
//
// Depth and Workers only size the two bounds; there is no other mode. At
// Depth 0 the loader may not touch visit vi+1 until visit vi is released,
// and with one worker as well batch bi+1 is not built until batch bi has
// computed: the stages then run one after another, handing off between
// goroutines, exactly as a plain nested loop would.
//
// Determinism contract: Compute runs in the caller's goroutine in exact
// plan order, and Build implementations are required to be functions of
// (visit, batch index) only — so an epoch computes the same batch
// sequence, and (given deterministic kernels) the same losses, at every
// Depth and Workers setting. The only thing concurrency changes is
// wall-clock overlap.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Config sizes the pipeline.
type Config struct {
	// Depth is how many visits the loader may run ahead of the one being
	// computed. At 0 (the minimum) Load(vi+1) starts only after visit vi
	// is released: no cross-visit overlap.
	Depth int
	// Workers is the number of batch-construction goroutines (minimum 1).
	// Workers+Depth bounds the batches in flight, so one worker at Depth 0
	// builds each batch only after the previous one has computed.
	Workers int
	// Instr, when non-nil, attaches lock-free metrics and trace spans
	// to every stage. It never changes stage ordering or results.
	Instr *Instr
}

// Stats reports how an epoch's pipeline behaved. All durations are
// measured from the compute stage's point of view: time it spent blocked
// waiting on an upstream stage (at Depth 0 that includes every Load, at
// one worker and Depth 0 every Build).
type Stats struct {
	// Depth and Workers echo the effective configuration.
	Depth   int
	Workers int
	// VisitsLoaded counts visits the loader completed.
	VisitsLoaded int
	// LoadWait is time the compute stage waited for a visit to finish
	// loading (loader behind).
	LoadWait time.Duration
	// BatchWait is time the compute stage waited for a prepared batch
	// (builders behind).
	BatchWait time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("pipeline depth=%d workers=%d loaded=%d load-wait=%s batch-wait=%s",
		s.Depth, s.Workers, s.VisitsLoaded, s.LoadWait.Round(time.Millisecond), s.BatchWait.Round(time.Millisecond))
}

// Epoch describes one epoch's stages over NumVisits ordered visits, each
// producing some number of batches. V is the loaded-visit type, B the
// prepared-batch type.
type Epoch[V, B any] struct {
	NumVisits int
	// Load performs visit vi's IO and preparation. Called in strict plan
	// order from the loader goroutine, so it may carry sequential state
	// across visits.
	Load func(vi int) (V, error)
	// Admit makes visit vi resident (e.g. the partition-buffer swap).
	// Called from the compute goroutine, in order, before any of the
	// visit's batches is built or computed.
	Admit func(vi int, v V) error
	// NumBatches reports how many batches visit vi produces.
	NumBatches func(v V) int
	// Build constructs batch bi of an admitted visit. Called from worker
	// goroutine w in [0, Workers), possibly out of order and concurrently
	// with Compute; it must depend only on (v, bi), never on w or timing.
	Build func(w int, v V, bi int) (B, error)
	// Compute consumes batch bi of visit vi. Called from the compute
	// goroutine in strict (visit, batch) order.
	Compute func(v V, bi int, b B) error
	// Release, when non-nil, recycles a loaded visit's buffers exactly
	// once: after its last batch has computed, or on an abort once no
	// builder holds it. Called from the compute goroutine, possibly
	// while Load runs for a later visit.
	Release func(v V)
}

// loaded pairs a visit with its load error.
type loaded[V any] struct {
	v   V
	err error
}

// built is one batch's build result.
type built[B any] struct {
	b   B
	err error
}

// job asks a builder for batch bi of visit v.
type job[V any] struct {
	v  V
	bi int
}

// Run executes one epoch. It returns the first error the compute stage
// meets walking the plan in order (a stage's own error, or ctx.Err() on
// cancellation), after the loader and every builder have exited: no stage
// callback is ever invoked again once Run returns.
func Run[V, B any](ctx context.Context, cfg Config, ep Epoch[V, B], st *Stats) error {
	workers, depth := max(cfg.Workers, 1), max(cfg.Depth, 0)
	if st == nil {
		st = new(Stats)
	}
	st.Depth, st.Workers = depth, workers
	if ep.NumVisits == 0 {
		return nil
	}
	in := cfg.Instr
	ep = instrumentEpoch(in, ep)
	if ep.Release == nil {
		ep.Release = func(V) {}
	}
	ctx, cancel := context.WithCancel(ctx)

	// The loader takes a credit per visit and the compute stage returns it
	// on release, so at most depth+1 visits are loaded and unreleased. At
	// most window batches are with the builders at once (building, or
	// built and not yet consumed, the one computing included); batch i
	// comes back on slots[i%window]. visits has a slot per credit and jobs
	// one per batch of the window, so neither send ever blocks.
	window := workers + depth
	credit := make(chan struct{}, depth+1)
	visits := make(chan loaded[V], depth+1)
	jobs := make(chan job[V], window)
	slots := make([]chan built[B], window)
	for i := range slots {
		slots[i] = make(chan built[B], 1)
	}
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(visits)
		for vi := 0; vi < ep.NumVisits; vi++ {
			select {
			case credit <- struct{}{}:
			case <-ctx.Done():
				return
			}
			v, err := ep.Load(vi)
			visits <- loaded[V]{v, err}
			if err != nil {
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				var r built[B]
				if r.err = ctx.Err(); r.err == nil { // after an abort, answer without building
					r.b, r.err = ep.Build(w, j.v, j.bi)
				}
				slots[j.bi%window] <- r
			}
		}()
	}

	// runVisit admits one loaded visit and consumes its batches in order.
	runVisit := func(vi int, v V) (err error) {
		next, got := 0, 0 // batches handed to the builders, and taken back
		defer func() {
			// Builders read the visit: on an abort, collect the batches
			// still with them before Release recycles its buffers.
			if err != nil {
				cancel()
			}
			for ; got < next; got++ {
				<-slots[got%window]
			}
			ep.Release(v)
			<-credit
		}()
		if err := ep.Admit(vi, v); err != nil {
			return err
		}
		n := ep.NumBatches(v)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for ; next < n && next < i+window; next++ {
				jobs <- job[V]{v, next}
			}
			t0 := time.Now()
			r := <-slots[i%window]
			got++
			wait := time.Since(t0)
			st.BatchWait += wait
			in.batchWait(wait)
			if r.err != nil {
				return r.err
			}
			if err := ep.Compute(v, i, r.b); err != nil {
				return err
			}
		}
		return nil
	}

	// The compute stage runs here, in the caller's goroutine.
	err := func() error {
		for vi := 0; vi < ep.NumVisits; vi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			in.queueDepth(len(visits))
			t0 := time.Now()
			lv, ok := <-visits
			wait := time.Since(t0)
			st.LoadWait += wait
			in.loadWait(wait)
			if !ok { // the loader stops early only on cancellation
				return ctx.Err()
			}
			if lv.err != nil {
				return lv.err
			}
			st.VisitsLoaded++
			if err := runVisit(vi, lv.v); err != nil {
				return err
			}
		}
		return nil
	}()
	cancel()
	close(jobs)
	wg.Wait()
	// Visits loaded ahead of an abort and never admitted.
	for lv := range visits {
		if lv.err == nil {
			st.VisitsLoaded++
			ep.Release(lv.v)
		}
	}
	return err
}
