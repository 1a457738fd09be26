package storage

import (
	"fmt"
	"slices"
)

// This file is the partition buffer's life-cycle as a transition system
// (paper Fig. 2, storage layer): one phase per partition, the c slots,
// and the guarded transitions between them. It does no IO, starts no
// goroutines and reads no clock: each transition returns the IO its
// caller must now perform, and DiskNodeStore is the shell that performs
// it. A transition that is not enabled changes nothing and returns no IO.
//
//	phase     holds                         left by
//	absent    nothing; disk is current      stage, admit
//	staging   a disk read into its buffer   stageDone(ok), admit (reserves a slot)
//	loading   a disk read into its slot     stageDone(ok)
//	staged    the read copy in its buffer   admit, drop
//	clean     a slot, same bytes as disk    dirty, evict, drop
//	dirty     a slot, newer than disk       beginWriteback, evict, drop
//	writing   a write-back of its buffer    endWriteback(ok), admit
//	retained  the failed write's buffer     beginWriteback (the retry), admit, drop
//
// A clean or dirty partition may also have the write-back of an earlier
// copy still in flight from its buffer (wb): it was admitted from that
// buffer, and is only written back again once that write has landed, so
// writes of one partition reach the disk in order.

type phase uint8

const (
	absent phase = iota
	staging
	loading
	staged
	clean
	dirty
	writing
	retained
)

var phaseNames = [...]string{"absent", "staging", "loading", "staged", "clean", "dirty", "writing", "retained"}

// ioSet is the IO a transition asks for, performed in this order.
type ioSet uint8

const (
	ioRead    ioSet = 1 << iota // take a buffer and read the partition from disk into it
	ioCopyOut                   // take a buffer and copy the slot into it
	ioCopyIn                    // copy the buffer into the slot
	ioReload                    // read the partition from disk straight into the slot
	ioWrite                     // write the buffer to disk
	ioFree                      // recycle the buffer
)

// op is a transition's IO and the slot it concerns (-1 for none).
type op struct {
	io   ioSet
	slot int
}

type pstate struct {
	ph   phase
	slot int  // owned slot: clean, dirty, loading, or staging for a waiting admit; else -1
	wb   bool // clean/dirty: a write-back of an earlier copy is in flight
	// Which copies hold the partition's newest bytes, moved along with
	// the IO each transition returns. Only unsafe reads them: they turn a
	// lost update or a stale copy into a state.
	onDisk, inBuf, inSlot bool
}

type buffer struct {
	parts []pstate
	owner []int // slot → owning partition, -1 when free
	free  []int // free slots, a stack
}

func newBuffer(numParts, capacity int) *buffer {
	b := &buffer{
		parts: slices.Repeat([]pstate{{slot: -1, onDisk: true}}, numParts),
		owner: slices.Repeat([]int{-1}, capacity),
	}
	for s := range capacity {
		b.free = append(b.free, s)
	}
	return b
}

func (b *buffer) release(p int) {
	if s := b.parts[p].slot; s >= 0 {
		b.owner[s], b.parts[p].slot = -1, -1
		b.free = append(b.free, s)
	}
}

// slotOf returns p's slot while it is resident, else -1.
func (b *buffer) slotOf(p int) int {
	if st := &b.parts[p]; st.ph == clean || st.ph == dirty {
		return st.slot
	}
	return -1
}

// inFlight reports whether a read or write-back of the partition is
// still to complete.
func (st pstate) inFlight() bool {
	return st.ph == staging || st.ph == loading || st.ph == writing || st.wb
}

func (b *buffer) busy() bool { return slices.ContainsFunc(b.parts, pstate.inFlight) }

// stage starts a prefetch of p. Only an absent partition is read: any
// other phase already holds a copy at least as new as the disk's.
func (b *buffer) stage(p int) op {
	st := &b.parts[p]
	if st.ph != absent {
		return op{}
	}
	st.ph, st.inBuf = staging, st.onDisk
	return op{ioRead, -1}
}

// stageDone records the end of p's read. A failed read frees its buffer
// and its slot; a read into a buffer an admit waits for is copied into
// the slot the admit reserved.
func (b *buffer) stageDone(p int, ok bool) op {
	st := &b.parts[p]
	o := op{ioFree, st.slot}
	switch {
	case st.ph == loading:
		st.ph, o.io = clean, 0
	case st.ph != staging:
		return op{}
	case ok && st.slot >= 0:
		st.ph, st.inSlot, o.io = clean, st.inBuf, ioCopyIn|ioFree
	case ok:
		st.ph, o = staged, op{}
	}
	if !ok {
		st.ph = absent
		b.release(p)
	}
	return o
}

// admit gives p a free slot and fills it from the newest copy: a staged,
// written-back or retained buffer, else the disk, by a read straight into
// the slot that stageDone completes.
func (b *buffer) admit(p int) op {
	st := &b.parts[p]
	if st.slot >= 0 || len(b.free) == 0 {
		return op{}
	}
	set := ioCopyIn | ioFree
	switch st.ph {
	case absent:
		st.ph, st.inSlot, set = loading, st.onDisk, ioReload
	case staging:
		set = 0
	case staged:
		st.ph = clean
	case writing:
		st.ph, st.wb, set = clean, true, ioCopyIn
	case retained:
		st.ph = dirty
	}
	if set&ioCopyIn != 0 {
		st.inSlot = st.inBuf
	}
	st.slot, b.free = b.free[len(b.free)-1], b.free[:len(b.free)-1]
	b.owner[st.slot] = p
	return op{set, st.slot}
}

// dirty marks a resident partition updated: its slot is now the only
// current copy.
func (b *buffer) dirty(p int) {
	if st := &b.parts[p]; st.ph == clean {
		st.ph = dirty
		st.inSlot, st.inBuf, st.onDisk = true, false, false
	}
}

// beginWriteback starts making p's disk copy current: a dirty slot is
// copied into a buffer that is written back, leaving p resident and
// clean, and a retained buffer is written again (the retry).
func (b *buffer) beginWriteback(p int) op {
	st := &b.parts[p]
	switch {
	case st.ph == retained:
		st.ph = writing
		return op{ioWrite, -1}
	case st.ph != dirty || st.wb:
		return op{}
	}
	st.ph, st.wb, st.inBuf = clean, true, st.inSlot
	return op{ioCopyOut | ioWrite, st.slot}
}

// evict frees p's slot, writing a dirty copy back first. A write-back
// still in flight carries on as writing.
func (b *buffer) evict(p int) op {
	st := &b.parts[p]
	if b.slotOf(p) < 0 || st.ph == dirty && st.wb {
		return op{}
	}
	o := b.beginWriteback(p)
	b.release(p)
	st.ph = absent
	if st.wb {
		st.ph, st.wb = writing, false
	}
	return o
}

// endWriteback records the end of p's write-back. A failed one that no
// slot holds a copy of is retained: its buffer is the only current copy.
func (b *buffer) endWriteback(p int, ok bool) op {
	st := &b.parts[p]
	switch {
	case st.ph != writing && !st.wb:
		return op{}
	case st.ph == writing && !ok:
		st.ph = retained
		return op{}
	case st.ph == writing:
		st.ph = absent
	case !ok:
		st.ph = dirty
	}
	if ok {
		st.onDisk = st.inBuf
	}
	st.wb = false
	return op{ioFree, -1}
}

// drop records that p's disk copy was overwritten from outside (Restore)
// and is now the newest: staged and retained buffers are recycled and a
// resident slot is re-read. Not while an IO of p is in flight.
func (b *buffer) drop(p int) op {
	st := &b.parts[p]
	if st.inFlight() {
		return op{}
	}
	st.onDisk, st.inBuf, st.inSlot = true, false, true
	switch st.ph {
	case staged, retained:
		st.ph = absent
		return op{ioFree, -1}
	case clean, dirty:
		st.ph = clean
		return op{ioReload, st.slot}
	}
	return op{}
}

// swap takes the next step of making exactly parts resident: evictions
// first, in ascending partition order, then admissions in parts order.
// It returns the partition moved, the phase it left and the IO to do;
// p < 0 means no step is enabled until an IO completes, and done that
// every partition in parts is resident.
func (b *buffer) swap(parts []int) (p int, from phase, o op, done bool) {
	wait := false
	for q := range b.parts {
		st := &b.parts[q]
		if st.slot < 0 || slices.Contains(parts, q) {
			continue
		}
		from = st.ph
		if o = b.evict(q); st.slot < 0 {
			return q, from, o, false
		}
		wait = true
	}
	if wait {
		return -1, 0, op{}, false
	}
	done = true
	for _, q := range parts {
		st := &b.parts[q]
		if b.slotOf(q) >= 0 {
			continue
		}
		done = false
		if st.slot >= 0 {
			continue // reading into the slot an earlier step reserved
		}
		from = st.ph
		if o = b.admit(q); st.slot >= 0 {
			return q, from, o, false
		}
	}
	return -1, 0, op{}, done
}

// unsafe names the first invariant the state breaks, or returns "". Every
// reachable state must pass it (TestBufferExhaustive).
func (b *buffer) unsafe() string {
	unowned := 0
	for s, p := range b.owner {
		if p < 0 {
			unowned++
		}
		if (p < 0) != slices.Contains(b.free, s) || p >= 0 && b.parts[p].slot != s {
			return fmt.Sprintf("slot %d: owner %d, free list %v", s, p, b.free)
		}
	}
	if unowned != len(b.free) {
		return fmt.Sprintf("free list %v holds a slot twice", b.free)
	}
	for p, st := range b.parts {
		resident := st.ph == clean || st.ph == dirty
		bad := ""
		switch {
		case st.slot >= 0 && b.owner[st.slot] != p, st.wb && !resident,
			resident != (st.slot >= 0) && st.ph != staging && st.ph != loading:
			bad = "holds a slot or a write-back its phase does not"
		case st.ph == absent && !st.onDisk:
			bad = "dropped while the disk copy is stale"
		case st.ph == clean && !st.wb && !st.onDisk:
			bad = "clean while the disk copy is stale"
		case (st.ph == staging || st.ph == staged) && !st.inBuf, st.ph == loading && !st.inSlot:
			bad = "read from a copy older than the newest (the disk, while memory held newer bytes)"
		case resident && !st.inSlot:
			bad = "admitted from a copy older than the newest"
		case (st.ph == writing || st.ph == retained) && !st.inBuf:
			bad = "write-back buffer recycled before its bytes are on disk"
		}
		if bad != "" {
			return fmt.Sprintf("partition %d (%s, slot %d, wb %v): %s", p, phaseNames[st.ph], st.slot, st.wb, bad)
		}
	}
	return ""
}
