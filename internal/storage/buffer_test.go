package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// clone returns a copy of b that shares no memory with it.
func (b *buffer) clone() *buffer {
	return &buffer{parts: slices.Clone(b.parts), owner: slices.Clone(b.owner), free: slices.Clone(b.free), hold: b.hold}
}

// key appends an encoding of b's state to k.
func (b *buffer) key(k []byte) []byte {
	bit := func(v bool, n uint) byte {
		if v {
			return 1 << n
		}
		return 0
	}
	for _, st := range b.parts {
		k = append(k, byte(st.ph), byte(st.frame+1), bit(st.pinned, 0)|bit(st.onDisk, 1)|bit(st.inFrame, 2))
	}
	for _, p := range b.owner {
		k = append(k, byte(p+1))
	}
	k = append(k, '|')
	for _, f := range b.free {
		k = append(k, byte(f))
	}
	return k
}

func (b *buffer) String() string {
	s := ""
	for p, st := range b.parts {
		s += fmt.Sprintf("%d:%s frame=%d pinned=%v disk=%v framecopy=%v; ",
			p, phaseNames[st.ph], st.frame, st.pinned, st.onDisk, st.inFrame)
	}
	return s + fmt.Sprintf("owner=%v free=%v", b.owner, b.free)
}

// checkIO reports what unsafe finds in the state a transition reached,
// and IO o for partition p that the state does not allow: a transfer
// into or out of a frame p does not own, or a write of a partition that
// is not writing.
func checkIO(b *buffer, p int, o op) string {
	if bad := b.unsafe(); bad != "" {
		return bad
	}
	switch {
	case o.io == 0:
	case o.frame < 0 || b.owner[o.frame] != p:
		return fmt.Sprintf("partition %d transfers through frame %d it does not own", p, o.frame)
	case o.io == ioRead && b.parts[p].ph != reading, o.io == ioWrite && b.parts[p].ph != writing:
		return fmt.Sprintf("partition %d (%s) asks for IO %d", p, phaseNames[b.parts[p].ph], o.io)
	}
	return ""
}

type move struct {
	name string
	do   func(b *buffer) (int, op)
}

// moves lists every transition of every partition, each IO completion
// with success and with failure, a drop of each while no IO is in flight
// (as Restore does), and a pin of every set of at most capacity
// partitions.
func moves(numParts, capacity int) []move {
	var ms []move
	for p := range numParts {
		add := func(name string, f func(b *buffer) op) {
			ms = append(ms, move{fmt.Sprintf("%s(%d)", name, p), func(b *buffer) (int, op) { return p, f(b) }})
		}
		add("fetch", func(b *buffer) op { return b.fetch(p) })
		add("readDone.ok", func(b *buffer) op { b.readDone(p, true); return op{} })
		add("readDone.fail", func(b *buffer) op { b.readDone(p, false); return op{} })
		add("dirty", func(b *buffer) op { b.dirty(p); return op{} })
		add("beginWriteback", func(b *buffer) op { return b.beginWriteback(p) })
		add("endWriteback.ok", func(b *buffer) op { b.endWriteback(p, true); return op{} })
		add("endWriteback.fail", func(b *buffer) op { b.endWriteback(p, false); return op{} })
		add("evict", func(b *buffer) op { b.evict(p); return op{} })
		add("drop", func(b *buffer) op {
			if slices.ContainsFunc(b.parts, func(st pstate) bool { return st.ph == reading || st.ph == writing }) {
				return op{}
			}
			return b.drop(p)
		})
	}
	for _, set := range sets(numParts, capacity) {
		ms = append(ms, move{fmt.Sprintf("pin%v", set), func(b *buffer) (int, op) { b.pin(set); return -1, op{} }})
	}
	return ms
}

// sets returns every subset of [0, n) with at most k members, ascending.
func sets(n, k int) [][]int {
	out := [][]int{{}}
	for p := range n {
		for _, s := range out {
			if len(s) < k {
				out = append(out, append(slices.Clone(s), p))
			}
		}
	}
	return out
}

// checkEventually holds the liveness half of the model at b: whatever IO
// in flight does, every partition keeps its newest copy (unsafe), and
// once it lands a Flush on a healthy disk makes every held partition
// clean and every disk copy current.
func checkEventually(b *buffer) string {
	for _, ok := range []bool{true, false} {
		end := b.clone()
		for p := range end.parts {
			end.readDone(p, ok)
			end.endWriteback(p, ok)
			if bad := end.unsafe(); bad != "" {
				return fmt.Sprintf("landing IO (ok=%v): %s", ok, bad)
			}
		}
		for p := range end.parts {
			end.beginWriteback(p)
			end.endWriteback(p, true)
		}
		for p, st := range end.parts {
			if st.ph != absent && st.ph != clean || !st.onDisk {
				return fmt.Sprintf("after a flush (ok=%v): partition %d ends %s (disk current: %v)", ok, p, phaseNames[st.ph], st.onDisk)
			}
		}
	}
	return ""
}

// TestBufferExhaustive explores every interleaving of the partition
// buffer's transitions — every IO completing with success or failure,
// every pin — for up to four partitions, two pinned and four frames, and
// holds every reachable state to unsafe and to checkEventually.
func TestBufferExhaustive(t *testing.T) {
	maxParts := 4
	if testing.Short() {
		maxParts = 3
	}
	for numParts := 1; numParts <= maxParts; numParts++ {
		for capacity := 1; capacity <= min(numParts, 2); capacity++ {
			frames := min(2*capacity, numParts)
			start := newBuffer(numParts, frames)
			seen := map[string]bool{string(start.key(nil)): true}
			queue := []*buffer{start}
			ms := moves(numParts, capacity)
			var k []byte
			for i := 0; i < len(queue); i++ {
				b := queue[i]
				if bad := checkEventually(b); bad != "" {
					t.Fatalf("P=%d c=%d at %v: %s", numParts, capacity, b, bad)
				}
				for _, m := range ms {
					n := b.clone()
					p, o := m.do(n)
					if bad := checkIO(n, p, o); bad != "" {
						t.Fatalf("P=%d c=%d: %s from %v: %s", numParts, capacity, m.name, b, bad)
					}
					if k = n.key(k[:0]); !seen[string(k)] {
						seen[string(k)] = true
						queue = append(queue, n)
					}
				}
			}
			t.Logf("P=%d c=%d (%d frames): %d states", numParts, capacity, frames, len(queue))
		}
	}
}

// errFail is the model's failed IO.
var errFail = errors.New("injected IO failure")

// world is one state of a compiled schedule executed by the store's two
// sides: the IO goroutine (step, then an IO in flight that lands ok or
// failed) and the trainer (LoadSet's release and admit, ApplyGrads
// dirtying what is resident, after a failed LoadSet the recovery a caller
// makes: a Flush, then the same LoadSet, which resumes the plan; and once
// every visit is admitted the nil Plan that ends the epoch).
type world struct {
	b     *buffer
	r     run
	io    int  // partition of the IO in flight, -1 for none
	write bool // the IO in flight is a write-back
	// loading: LoadSet of visit r.visit has released and waits to admit.
	loading bool
	// failed: an IO has failed (at most one per path), wfailed: a
	// write-back; lost: the trainer saw the error and must recover before
	// its next LoadSet.
	failed, wfailed, lost bool
	reads                 int
}

func (w *world) clone() *world {
	c := *w
	c.b = w.b.clone()
	return &c
}

func (w *world) key(k []byte) []byte {
	k = w.b.key(k)
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	return append(k, byte(w.r.read), byte(w.r.evicted), byte(w.r.done), byte(w.r.visit), byte(w.r.released), byte(len(w.r.sets)),
		bit(w.r.err != nil), bit(w.r.stopped), byte(w.io+1), bit(w.write), bit(w.loading), bit(w.failed), bit(w.wfailed), bit(w.lost), byte(w.reads))
}

// next returns the states one move of either side reaches from w, or
// names the broken property. ended reports that the IO goroutine has
// nothing left to do.
func (w *world) next(learnable bool) (out []*world, ended bool, bad string) {
	if w.io < 0 {
		n := w.clone()
		switch p, o, wait, end := n.r.step(n.b); {
		case errors.Is(n.r.err, errDiverged):
			return nil, false, "the schedule diverged from the buffer"
		case !wait && !end:
			if o.io == 0 {
				return nil, false, fmt.Sprintf("step of op %d/%d asks for no IO", n.r.read, n.r.evicted)
			}
			if bad := checkIO(n.b, p, o); bad != "" {
				return nil, false, fmt.Sprintf("step of op %d/%d: %s", n.r.read, n.r.evicted, bad)
			}
			n.io, n.write = p, o.io == ioWrite
			if !n.write {
				n.reads++
			}
			out = append(out, n)
		case !slices.Equal(n.key(nil), w.key(nil)):
			out = append(out, n) // clean victims evicted before the goroutine waits or ends
		default:
			ended = end
		}
	} else {
		for _, fail := range []bool{false, true} {
			if fail && w.failed {
				continue
			}
			n := w.clone()
			var err error
			if fail {
				err, n.failed, n.wfailed = errFail, true, n.write
			}
			n.r.landed(n.b, n.io, n.write, err)
			n.io = -1
			out = append(out, n)
		}
	}
	switch {
	case w.lost && w.io < 0:
		// The caller's recovery: a Flush (stop the run, write back every
		// dirty partition), which a failed write-back's latched error
		// needs, then the same LoadSet, which resumes the plan from its
		// visit.
		for _, flush := range []bool{true, false} {
			if !flush && w.wfailed {
				continue
			}
			n := w.clone()
			for p := range n.b.parts {
				if flush {
					n.b.beginWriteback(p)
					n.b.endWriteback(p, true)
				}
			}
			n.b.pin(nil)
			n.r = *newRun(n.b, w.r.sets[w.r.visit:], learnable)
			n.lost = false
			out = append(out, n)
		}
	case w.lost:
	case w.loading:
		n := w.clone()
		d := n.r.visit
		switch ok, err := n.r.admit(n.b, d); {
		case errors.Is(err, errDiverged):
			return nil, false, fmt.Sprintf("admitting visit %d: %v", d, err)
		case ok:
			for _, p := range n.r.sets[d] {
				if n.b.frameOf(p) < 0 {
					return nil, false, fmt.Sprintf("visit %d admitted without partition %d resident", d, p)
				}
			}
			n.loading = false
			out = append(out, n)
		case err != nil:
			n.loading, n.lost = false, true
			out = append(out, n)
		}
	case w.r.visit < len(w.r.sets):
		n := w.clone()
		n.r.release(n.b)
		n.loading = true
		out = append(out, n)
	case !w.r.stopped:
		n := w.clone() // Plan(nil): the run stops once its owed evictions land
		n.r.stopped = true
		out = append(out, n)
	}
	if learnable && !w.loading && !w.lost {
		for p, st := range w.b.parts {
			if st.pinned && st.ph == clean {
				n := w.clone()
				n.b.dirty(p)
				out = append(out, n)
			}
		}
	}
	for _, n := range out {
		if bad := n.b.unsafe(); bad != "" {
			return nil, false, bad
		}
	}
	return out, ended, ""
}

// exploreSchedule runs the schedule compiled for plan from b under every
// order of its IO and trainer moves, every IO landing ok or (once per
// path) failed, and returns the states it visited.
func exploreSchedule(b *buffer, plan [][]int, learnable bool) (int, string) {
	start := &world{b: b, io: -1}
	b.pin(nil)
	start.r = *newRun(b, plan, learnable)
	want := 0
	for _, o := range start.r.ops {
		if o.part >= 0 {
			want++
		}
	}
	seen := map[string]bool{string(start.key(nil)): true}
	queue := []*world{start}
	var k []byte
	for i := 0; i < len(queue); i++ {
		w := queue[i]
		next, ended, bad := w.next(learnable)
		if bad != "" {
			return i, fmt.Sprintf("at %v (op %d/%d of %v, visit %d): %s", w.b, w.r.read, w.r.evicted, w.r.ops, w.r.visit, bad)
		}
		if len(next) == 0 {
			switch held := heldCount(w.b); {
			case w.r.visit < len(w.r.sets) || w.loading || !ended:
				return i, fmt.Sprintf("stuck at visit %d of %d at %v", w.r.visit, len(plan), w.b)
			case w.failed:
			case w.reads != want:
				return i, fmt.Sprintf("read %d partitions, the schedule %d (%v)", w.reads, want, start.r.ops)
			case w.r.evicted != len(w.r.ops) || held > w.b.hold:
				return i, fmt.Sprintf("the plan ended with %d of %d evictions done and %d partitions held (%v)",
					w.r.evicted, len(w.r.ops), held, w.b)
			}
		}
		for _, n := range next {
			if k = n.key(k[:0]); !seen[string(k)] {
				seen[string(k)] = true
				queue = append(queue, n)
			}
		}
	}
	return len(queue), ""
}

// heldCount returns how many partitions b holds.
func heldCount(b *buffer) int {
	n := 0
	for _, st := range b.parts {
		if st.held() {
			n++
		}
	}
	return n
}

// plans returns every sequence of 1 to length non-empty sets of at most
// k of n partitions.
func plans(n, k, length int) [][][]int {
	var nonEmpty [][]int
	for _, s := range sets(n, k) {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	var out, level [][][]int
	level = [][][]int{{}}
	for range length {
		var grown [][][]int
		for _, pl := range level {
			for _, s := range nonEmpty {
				grown = append(grown, append(slices.Clone(pl), s))
			}
		}
		out, level = append(out, grown...), grown
	}
	return out
}

// starts returns every buffer of n partitions and the given frames whose
// held partitions are clean, or also dirty when learnable, with none in
// flight: the states a plan can be compiled from.
func starts(n, frames int, learnable bool) []*buffer {
	out := []*buffer{newBuffer(n, frames)}
	for p := range n {
		for _, b := range out {
			if len(b.free) == 0 {
				continue
			}
			c := b.clone()
			c.fetch(p)
			c.readDone(p, true)
			out = append(out, c)
			if learnable {
				d := c.clone()
				d.parts[p].pinned = true
				d.dirty(p)
				d.parts[p].pinned = false
				out = append(out, d)
			}
		}
	}
	return out
}

// TestBufferScheduleExhaustive is the model check of the compiled
// schedule and its write-behind run: for every plan of up to three visits
// over P ≤ 4 partitions and c ≤ 2 from an empty buffer, and of up to two
// from every other state a plan can start in (a stopped run's landing
// frame still filled included), holding c to 2c partitions in as many
// frames or with one landing frame more, read-only and learnable, it
// executes the schedule under every order of the IO goroutine's reads,
// evictions and write-backs and of LoadSet's moves, with each IO landing
// ok or failed, the caller's Flush-and-retry after a failed LoadSet and
// the nil Plan ending the epoch. Every state passes unsafe, every
// admitted visit has its set resident, nothing waits forever, and with
// no failure the partitions read are exactly the schedule's ops and
// every eviction has ended when the run stops.
func TestBufferScheduleExhaustive(t *testing.T) {
	maxParts, maxLen := 4, 3
	if testing.Short() {
		maxParts = 3
	}
	for numParts := 1; numParts <= maxParts; numParts++ {
		for capacity := 1; capacity <= min(numParts, 2); capacity++ {
			for hold := capacity; hold <= min(2*capacity, numParts); hold++ {
				for frames := hold; frames <= min(hold+2, numParts); frames++ {
					for _, learnable := range []bool{false, true} {
						states, runs := 0, 0
						for i, start := range starts(numParts, frames, learnable) {
							start.hold = hold
							length := maxLen
							if i > 0 {
								length-- // a buffer holding partitions starts shorter plans
							}
							for _, plan := range plans(numParts, capacity, length) {
								n, bad := exploreSchedule(start.clone(), plan, learnable)
								if bad != "" {
									t.Fatalf("P=%d c=%d hold=%d frames=%d learnable=%v plan %v from %v: %s",
										numParts, capacity, hold, frames, learnable, plan, start, bad)
								}
								states, runs = states+n, runs+1
							}
						}
						t.Logf("P=%d c=%d hold=%d frames=%d learnable=%v: %d schedules, %d states",
							numParts, capacity, hold, frames, learnable, runs, states)
					}
				}
			}
		}
	}
}

// TestScheduleBelady holds compile to a brute-force optimum: over every
// plan of up to four visits of P ≤ 4 partitions, c ≤ 2 and c to 2c
// frames, from an empty buffer, no order of evictions reads fewer
// partitions than the schedule.
func TestScheduleBelady(t *testing.T) {
	maxLen := 4
	if testing.Short() {
		maxLen = 3
	}
	for numParts := 1; numParts <= 4; numParts++ {
		for capacity := 1; capacity <= min(numParts, 2); capacity++ {
			for frames := capacity; frames <= min(2*capacity, numParts); frames++ {
				for _, plan := range plans(numParts, capacity, maxLen) {
					got := len(newBuffer(numParts, frames).compile(plan, false))
					if best := fewestReads(plan, frames, nil); got != best {
						t.Fatalf("P=%d frames=%d plan %v: schedule reads %d, an eviction order reads %d", numParts, frames, plan, got, best)
					}
				}
			}
		}
	}
}

// fewestReads is the least number of reads any eviction order needs to
// load plan's sets in turn over frames frames, starting from held.
func fewestReads(plan [][]int, frames int, held []int) int {
	if len(plan) == 0 {
		return 0
	}
	set := plan[0]
	var missing, keep []int
	for _, p := range set {
		if !slices.Contains(held, p) {
			missing = append(missing, p)
		}
	}
	for _, p := range held {
		if !slices.Contains(set, p) {
			keep = append(keep, p)
		}
	}
	// Keep any subset of the others that fits beside the set.
	best := -1
	room := frames - len(set)
	for mask := 0; mask < 1<<len(keep); mask++ {
		next := slices.Clone(set)
		for i, p := range keep {
			if mask&(1<<i) != 0 {
				next = append(next, p)
			}
		}
		if len(next)-len(set) > room {
			continue
		}
		if n := fewestReads(plan[1:], frames, next); best < 0 || n < best {
			best = n
		}
	}
	return len(missing) + best
}
