package storage

import (
	"fmt"
	"slices"
	"testing"
)

// world is a buffer plus the one fact its IO implies that it does not
// store itself: which partitions hold a staging or write-back buffer. run
// executes a transition's IO against it, as the shell would, so IO a
// phase does not allow (a second buffer, a copy from none) is caught even
// when the phases look right.
type world struct {
	b      *buffer
	hasBuf []bool
}

func newWorld(numParts, capacity int) world {
	return world{newBuffer(numParts, capacity), make([]bool, numParts)}
}

func (w world) clone() world {
	b := &buffer{parts: slices.Clone(w.b.parts), owner: slices.Clone(w.b.owner), free: slices.Clone(w.b.free)}
	return world{b, slices.Clone(w.hasBuf)}
}

// set makes w a copy of src, reusing w's memory.
func (w world) set(src world) world {
	copy(w.b.parts, src.b.parts)
	copy(w.b.owner, src.b.owner)
	w.b.free = append(w.b.free[:0], src.b.free...)
	copy(w.hasBuf, src.hasBuf)
	return w
}

// key appends an encoding of the state to k[:0].
func (w world) key(k []byte) []byte {
	k = k[:0]
	bit := func(v bool, n uint) byte {
		if v {
			return 1 << n
		}
		return 0
	}
	for p, st := range w.b.parts {
		k = append(k, byte(st.ph), byte(st.slot+1),
			bit(st.wb, 0)|bit(st.onDisk, 1)|bit(st.inBuf, 2)|bit(st.inSlot, 3)|bit(w.hasBuf[p], 4))
	}
	for _, p := range w.b.owner {
		k = append(k, byte(p+1))
	}
	k = append(k, '|')
	for _, s := range w.b.free {
		k = append(k, byte(s))
	}
	return k
}

func (w world) String() string {
	s := ""
	for p, st := range w.b.parts {
		s += fmt.Sprintf("%d:%s slot=%d wb=%v disk=%v buf=%v(%v) slotcopy=%v; ",
			p, phaseNames[st.ph], st.slot, st.wb, st.onDisk, st.inBuf, w.hasBuf[p], st.inSlot)
	}
	return s + fmt.Sprintf("owner=%v free=%v", w.b.owner, w.b.free)
}

// run reports what unsafe finds in the state a transition reached, then
// performs its IO o for partition p on the buffer model and reports IO
// that state does not allow.
func (w world) run(p int, o op) string {
	if bad := w.b.unsafe(); bad != "" {
		return bad
	}
	if p >= 0 {
		switch {
		case o.io&(ioRead|ioCopyOut) != 0 && w.hasBuf[p]:
			return fmt.Sprintf("partition %d takes a second buffer", p)
		case o.io&(ioCopyIn|ioWrite|ioFree) != 0 && !w.hasBuf[p] && o.io&(ioRead|ioCopyOut) == 0:
			return fmt.Sprintf("partition %d uses a buffer it does not hold", p)
		case o.io&(ioCopyIn|ioCopyOut|ioReload) != 0 && o.slot < 0:
			return fmt.Sprintf("partition %d copies without a slot", p)
		}
		if o.io&(ioRead|ioCopyOut) != 0 {
			w.hasBuf[p] = true
		}
		if o.io&ioFree != 0 {
			w.hasBuf[p] = false
		}
	}
	for q, st := range w.b.parts {
		needs := st.ph == staging || st.ph == staged || st.ph == writing || st.ph == retained || st.wb
		if needs != w.hasBuf[q] {
			return fmt.Sprintf("partition %d (%s, wb %v) holds a buffer: %v", q, phaseNames[st.ph], st.wb, w.hasBuf[q])
		}
	}
	return ""
}

type move struct {
	name string
	do   func(b *buffer) (int, op)
}

// moves lists every transition of every partition, each IO completion
// with success and with failure, and one step of LoadSet's swap towards
// every set of at most capacity partitions.
func moves(numParts, capacity int) []move {
	var ms []move
	for p := range numParts {
		add := func(name string, f func(b *buffer) op) {
			ms = append(ms, move{fmt.Sprintf("%s(%d)", name, p), func(b *buffer) (int, op) { return p, f(b) }})
		}
		add("stage", func(b *buffer) op { return b.stage(p) })
		add("stageDone.ok", func(b *buffer) op { return b.stageDone(p, true) })
		add("stageDone.fail", func(b *buffer) op { return b.stageDone(p, false) })
		add("admit", func(b *buffer) op { return b.admit(p) })
		add("dirty", func(b *buffer) op { b.dirty(p); return op{} })
		add("evict", func(b *buffer) op { return b.evict(p) })
		add("beginWriteback", func(b *buffer) op { return b.beginWriteback(p) })
		add("endWriteback.ok", func(b *buffer) op { return b.endWriteback(p, true) })
		add("endWriteback.fail", func(b *buffer) op { return b.endWriteback(p, false) })
		add("drop", func(b *buffer) op { return b.drop(p) })
	}
	for _, set := range sets(numParts, capacity) {
		ms = append(ms, move{fmt.Sprintf("swap%v", set), func(b *buffer) (int, op) {
			p, _, o, _ := b.swap(set)
			return p, o
		}})
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

// settle completes every IO in flight with outcome ok and evicts every
// resident partition, until nothing changes.
func settle(w world, ok bool) (world, string) {
	steps := []func(b *buffer, p int) op{
		func(b *buffer, p int) op { return b.stageDone(p, ok) },
		func(b *buffer, p int) op { return b.endWriteback(p, ok) },
		(*buffer).evict,
	}
	for changed := true; changed; {
		changed = false
		for p := range w.b.parts {
			for _, step := range steps {
				before := w.b.parts[p]
				if bad := w.run(p, step(w.b, p)); bad != "" {
					return w, bad
				}
				changed = changed || w.b.parts[p] != before
			}
		}
	}
	return w, ""
}

// finish drives swap(set) to completion, completing one in-flight IO
// successfully whenever it must wait, as LoadSet does.
func finish(w world, set []int) string {
	for range 4 * (len(w.b.parts) + 1) {
		p, _, o, done := w.b.swap(set)
		if bad := w.run(p, o); bad != "" {
			return bad
		}
		if done {
			var res []int
			for q := range w.b.parts {
				if w.b.slotOf(q) >= 0 {
					res = append(res, q)
				}
			}
			if !slices.Equal(res, set) {
				return fmt.Sprintf("done with %v resident", res)
			}
			return ""
		}
		if p >= 0 {
			continue
		}
		q := slices.IndexFunc(w.b.parts, pstate.inFlight)
		if q < 0 {
			return "waits with no IO in flight"
		}
		if bad := w.run(q, w.b.stageDone(q, true)); bad != "" {
			return bad
		}
		if bad := w.run(q, w.b.endWriteback(q, true)); bad != "" {
			return bad
		}
	}
	return "does not finish"
}

// checkEventually holds the liveness half of the model at w: whatever
// IO in flight does, every partition ends with its newest copy on disk
// or retained, retrying the retained ones on a healthy disk puts every
// newest copy on disk (a staged copy may stay, equal to it), and a swap
// to any set finishes once IO completes.
func checkEventually(w, scratch world, swaps [][]int) string {
	for _, ok := range []bool{true, false} {
		end, bad := settle(scratch.set(w), ok)
		if bad != "" {
			return fmt.Sprintf("settling (ok=%v): %s", ok, bad)
		}
		for p, st := range end.b.parts {
			if st.ph != absent && st.ph != staged && st.ph != retained {
				return fmt.Sprintf("settling (ok=%v): partition %d ends %s", ok, p, phaseNames[st.ph])
			}
		}
		for p := range end.b.parts {
			if bad := end.run(p, end.b.beginWriteback(p)); bad != "" {
				return "retrying: " + bad
			}
		}
		if end, bad = settle(end, true); bad != "" {
			return "settling retries: " + bad
		}
		for p, st := range end.b.parts {
			if st.ph != absent && st.ph != staged || !st.onDisk {
				return fmt.Sprintf("partition %d ends %s (disk current: %v)", p, phaseNames[st.ph], st.onDisk)
			}
		}
	}
	for _, set := range swaps {
		if bad := finish(scratch.set(w), set); bad != "" {
			return fmt.Sprintf("swap%v: %s", set, bad)
		}
	}
	return ""
}

// explore visits every state reachable from an empty buffer of numParts
// partitions and capacity slots, checking each transition's IO and
// unsafe on the way and the liveness properties at every state.
func explore(t *testing.T, numParts, capacity int) int {
	start, n, scratch := newWorld(numParts, capacity), newWorld(numParts, capacity), newWorld(numParts, capacity)
	var k []byte
	seen := map[string]bool{string(start.key(k)): true}
	queue := []world{start}
	ms, swaps := moves(numParts, capacity), sets(numParts, capacity)
	for i := 0; i < len(queue); i++ {
		w := queue[i]
		if bad := checkEventually(w, scratch, swaps); bad != "" {
			t.Fatalf("P=%d c=%d at %v: %s", numParts, capacity, w, bad)
		}
		for _, m := range ms {
			n = n.set(w)
			if bad := n.run(m.do(n.b)); bad != "" {
				t.Fatalf("P=%d c=%d: %s from %v: %s", numParts, capacity, m.name, w, bad)
			}
			if k = n.key(k); !seen[string(k)] {
				seen[string(k)] = true
				queue = append(queue, n.clone())
			}
		}
	}
	return len(queue)
}

// TestBufferExhaustive explores every interleaving of the partition
// buffer's transitions — every IO completing with success or failure —
// for up to four partitions and two slots, and holds every reachable
// state to unsafe and to the liveness properties of checkEventually.
func TestBufferExhaustive(t *testing.T) {
	maxParts := 4
	if testing.Short() {
		maxParts = 3
	}
	for numParts := 1; numParts <= maxParts; numParts++ {
		for capacity := 1; capacity <= min(numParts, 2); capacity++ {
			n := explore(t, numParts, capacity)
			t.Logf("P=%d c=%d: %d states", numParts, capacity, n)
		}
	}
}
