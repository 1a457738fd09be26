package storage

import (
	"errors"
	"slices"
)

// This file compiles an epoch's partition IO from its plan. The sets the
// walked visits load are known before the epoch starts, so paging them is
// offline: Belady's rule (evict the partition whose next use is furthest
// away) needs the fewest reads. Like buffer.go it does no IO and reads no
// clock; the IO it decides is a function of the plan, the frames and the
// partitions held when it is compiled, and only when each op runs depends
// on timing.

// sop is one op of a compiled schedule: free a frame by evicting victim
// (written back first if dirty; -1 when a frame is free), then read part
// into it. It starts once visit after, the last visit before due that
// reads victim (-1: none), is released, and lands before LoadSet admits
// visit due.
type sop struct{ part, victim, due, after int }

// compile returns the ops that make each of sets resident in turn over
// b's frames, starting from the partitions b holds. A missing partition
// takes a free frame, else the frame of the held partition, outside the
// visit's set, that is used again furthest ahead; among equals, a clean
// one (no write-back; a learnable store's visits dirty what they load),
// then the one released longest ago, then the lowest. Ops come in the
// order their visits use them. Every set must fit the frames.
func (b *buffer) compile(sets [][]int, learnable bool) []sop {
	n := len(b.parts)
	uses := make([][]int, n) // the visits that load each partition, ascending
	for d, set := range sets {
		for _, p := range set {
			uses[p] = append(uses[p], d)
		}
	}
	held, dirt, last := make([]bool, n), make([]bool, n), slices.Repeat([]int{-1}, n)
	for p, st := range b.parts {
		held[p], dirt[p] = st.held(), st.ph == dirty
	}
	nextUse := func(q, d int) int {
		for _, u := range uses[q] {
			if u > d {
				return u
			}
		}
		return len(sets)
	}
	better := func(q, r, d int) bool { // q is the better victim
		if a, b := nextUse(q, d), nextUse(r, d); a != b {
			return a > b
		}
		if dirt[q] != dirt[r] {
			return !dirt[q]
		}
		if last[q] != last[r] {
			return last[q] < last[r]
		}
		return q < r
	}
	free := len(b.free)
	var ops []sop
	for d, set := range sets {
		for _, p := range set {
			if held[p] {
				continue
			}
			o := sop{part: p, victim: -1, due: d, after: -1}
			if free > 0 {
				free--
			} else {
				for q := range held {
					if held[q] && !slices.Contains(set, q) && (o.victim < 0 || better(q, o.victim, d)) {
						o.victim = q
					}
				}
				o.after, held[o.victim] = last[o.victim], false
			}
			ops = append(ops, o)
			held[p], dirt[p] = true, false
		}
		for _, p := range set {
			last[p], dirt[p] = d, dirt[p] || learnable
		}
	}
	return ops
}

// run is a compiled schedule in progress: the IO side (one goroutine
// running the ops in order, step and landed) and the LoadSet side (admit)
// meet only in its counters.
type run struct {
	sets [][]int
	ops  []sop
	need []int // need[d]: the ops that land before visit d is admitted

	started, done int // ops begun, ops whose read has landed
	visit         int // the next visit LoadSet admits
	released      int // visits whose rows are no longer read: those before visit
	err           error
	stopped       bool
}

var (
	// errDiverged refuses an op the buffer's state does not allow: a bug,
	// not an IO failure, but the epoch fails the same way.
	errDiverged = errors.New("storage: buffer state diverged from the compiled schedule")
	// errStopped fails a LoadSet whose plan a Flush or Restore stopped
	// while it waited; the same LoadSet again resumes the plan.
	errStopped = errors.New("storage: load interrupted by a flush or restore")
)

func newRun(b *buffer, sets [][]int, learnable bool) *run {
	r := &run{sets: sets, ops: b.compile(sets, learnable), need: make([]int, len(sets))}
	for _, o := range r.ops {
		r.need[o.due]++
	}
	for d := 1; d < len(sets); d++ {
		r.need[d] += r.need[d-1]
	}
	return r
}

// next reports whether LoadSet(set) is the run's next visit.
func (r *run) next(set []int) bool {
	return r != nil && r.err == nil && !r.stopped && r.visit < len(r.sets) && slices.Equal(r.sets[r.visit], set)
}

// step is the IO goroutine's next move: the partition and IO to perform
// (a victim's write-back, or a read into the frame the op freed), wait
// when the op's victim is still to be released, or end when the run is
// over. A victim written back comes to step again once its write lands.
func (r *run) step(b *buffer) (p int, o op, wait, end bool) {
	if r.err != nil || r.stopped || r.started == len(r.ops) {
		return -1, op{}, false, true
	}
	s := r.ops[r.started]
	if s.after >= r.released || s.victim >= 0 && b.parts[s.victim].pinned {
		return -1, op{}, true, false
	}
	if s.victim >= 0 {
		switch b.parts[s.victim].ph {
		case dirty:
			return s.victim, b.beginWriteback(s.victim), false, false
		case clean:
			b.evict(s.victim)
		default:
			r.err = errDiverged
			return -1, op{}, false, true
		}
	}
	if o = b.fetch(s.part); o.io == 0 {
		r.err = errDiverged
		return -1, op{}, false, true
	}
	r.started++
	return s.part, o, false, false
}

// landed records the end of the IO step returned for p; a failure ends
// the run with err.
func (r *run) landed(b *buffer, p int, write bool, err error) {
	if write {
		b.endWriteback(p, err == nil)
	} else {
		b.readDone(p, err == nil)
		if err == nil {
			r.done++
		}
	}
	if err != nil {
		r.err = err
	}
}

// release starts LoadSet's admission of the run's next visit: the
// previous visit's rows are no longer read, so ops waiting for its
// partitions may start. It returns the visit.
func (r *run) release(b *buffer) int {
	r.released = r.visit
	b.pin(nil)
	return r.visit
}

// admit completes the admission of visit d once every op due by then has
// landed, pinning its set. It reports false while LoadSet must wait, and
// the run's error once an op has failed.
func (r *run) admit(b *buffer, d int) (bool, error) {
	switch {
	case r.done >= r.need[d]:
		if !b.pin(r.sets[d]) {
			r.err = errDiverged
			return false, r.err
		}
		r.visit = d + 1
		return true, nil
	case r.err != nil:
		return false, r.err
	case r.stopped:
		return false, errStopped
	}
	return false, nil
}
