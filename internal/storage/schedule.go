package storage

import (
	"errors"
	"slices"
)

// This file compiles an epoch's partition IO from its plan. The sets the
// walked visits load are known before the epoch starts, so paging them is
// offline: Belady's rule (evict the partition whose next use is furthest
// away) needs the fewest reads. Like buffer.go it does no IO and reads no
// clock; the IO it decides is a function of the plan, the partitions the
// buffer may hold and those it holds when it is compiled, and only when
// each op's read and eviction run depends on timing.

// sop is one op of a compiled schedule, in two halves. Its read brings
// part into a free frame: it starts once one exists, and lands before
// LoadSet admits visit due. Its eviction frees the frame of victim
// (written back first if dirty; -1 when the read took a frame the
// schedule had spare) for a later read: it starts once visit after, the
// last visit before due that reads victim (-1: none), is released. An op
// with part -1 is an eviction alone.
type sop struct{ part, victim, due, after int }

// compile returns the ops that make each of sets resident in turn while
// at most b.hold partitions stay held, starting from the partitions b
// holds. A missing partition takes a spare place, else the place of the
// held partition, outside the visit's set, that is used again furthest
// ahead; among equals, a clean one (no write-back; a learnable store's
// visits dirty what they load), then the one released longest ago, then
// the lowest. Ops come in the order their visits use them, after the
// evictions alone that bring more than b.hold held partitions back to it.
// Every set must fit b.hold.
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
	victim := func(set []int, d int) int { // the held partition to evict for visit d
		v := -1
		for q := range held {
			if held[q] && !slices.Contains(set, q) && (v < 0 || better(q, v, d)) {
				v = q
			}
		}
		held[v] = false
		return v
	}
	free := b.hold
	for _, h := range held {
		if h {
			free--
		}
	}
	var ops []sop
	// A run stopped while its victim was pinned leaves the landing frame
	// filled: evictions alone bring the buffer back to b.hold first.
	for ; free < 0 && len(sets) > 0; free++ {
		ops = append(ops, sop{part: -1, victim: victim(sets[0], 0), after: -1})
	}
	for d, set := range sets {
		for _, p := range set {
			if held[p] {
				continue
			}
			o := sop{part: p, victim: -1, due: d, after: -1}
			if free > 0 {
				free--
			} else {
				o.victim = victim(set, d)
				o.after = last[o.victim]
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
// running the ops' reads and evictions, step and landed) and the LoadSet
// side (release and admit) meet only in its counters.
//
// A store's buffer has one frame more than it holds (b.hold), the landing
// frame, so a read need not wait for its victim: it lands in the free
// frame while the previous visit still computes on the victim, and the
// victim's eviction, once that visit is released, frees a frame for the
// next read. Reads go in op order, and so do evictions. A read waits for
// a free frame and for its partition to be absent (an earlier op's
// eviction of it has ended); an eviction waits for its victim's last
// visit to be released. The IO goroutine starts a read when it can, else
// an eviction.
type run struct {
	sets [][]int
	ops  []sop
	need []int // need[d]: the ops that land before visit d is admitted

	read, evicted int // ops whose read has begun, ops whose eviction has ended
	done          int // ops whose read has landed
	visit         int // the next visit LoadSet admits
	released      int // visits whose rows are no longer read: those before visit
	err           error
	// stopped: no read starts; the IO goroutine ends once the evictions
	// owed by the reads begun have ended or wait for a release.
	stopped bool
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
		if o.part >= 0 {
			r.need[o.due]++
		}
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
// (a read into a free frame, or a victim's write-back), wait when neither
// may start yet, or end when the run is over. A victim written back comes
// to step again once its write lands, and a clean one is evicted here.
func (r *run) step(b *buffer) (p int, o op, wait, end bool) {
	for r.err == nil {
		for r.read < len(r.ops) && r.ops[r.read].part < 0 {
			r.read++ // an eviction alone: nothing to read
		}
		if !r.stopped && r.read < len(r.ops) && len(b.free) > 0 {
			if s := r.ops[r.read]; b.parts[s.part].ph == absent {
				r.read++
				return s.part, b.fetch(s.part), false, false
			}
		}
		for r.evicted < len(r.ops) && r.ops[r.evicted].victim < 0 {
			r.evicted++
		}
		if r.evicted == len(r.ops) || r.stopped && r.evicted >= r.read {
			if !r.stopped && r.read < len(r.ops) {
				r.err = errDiverged // a read waits with no eviction left to free its frame
			}
			break
		}
		s := r.ops[r.evicted]
		if s.after >= r.released || b.parts[s.victim].pinned {
			return -1, op{}, !r.stopped, r.stopped
		}
		switch b.parts[s.victim].ph {
		case dirty:
			return s.victim, b.beginWriteback(s.victim), false, false
		case clean:
			b.evict(s.victim)
			r.evicted++
		default:
			r.err = errDiverged
		}
	}
	return -1, op{}, false, true
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
// previous visit's rows are no longer read, so evictions waiting for its
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
