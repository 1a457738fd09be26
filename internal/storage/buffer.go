package storage

import (
	"fmt"
	"slices"
)

// This file is the partition buffer's life-cycle as a transition system
// (paper Fig. 2, storage layer): one phase per partition, a fixed set of
// frames, and the guarded transitions between them. It does no IO,
// starts no goroutines and reads no clock: each transition returns the IO
// its caller must now perform, and DiskNodeStore is the shell that
// performs it. A transition that is not enabled changes nothing and
// returns no IO.
//
//	phase    holds                           left by
//	absent   nothing; disk is current        fetch
//	reading  a disk read into its frame      readDone
//	clean    a frame, same bytes as disk     dirty, evict, drop
//	dirty    a frame, newer than disk        beginWriteback, drop
//	writing  a write-back of its frame       endWriteback
//
// A frame is a copy: whatever phase holds it, its partition's newest
// bytes are in it until the frame is reused, and a dirty partition is
// written back only when its frame is (evict takes clean partitions
// only). Separately, the partitions LoadSet last admitted are pinned:
// only a pinned clean or dirty partition is resident, the rows Gather
// and ApplyGrads may touch, and a pinned partition is never evicted.

type phase uint8

const (
	absent phase = iota
	reading
	clean
	dirty
	writing
)

var phaseNames = [...]string{"absent", "reading", "clean", "dirty", "writing"}

// ioSet is the IO a transition asks for.
type ioSet uint8

const (
	ioRead   ioSet = 1 << iota // read the partition from disk into its frame
	ioWrite                    // write the frame back to disk
	ioReload                   // refill the frame, in place, with the disk's bytes
)

// op is a transition's IO and the frame it concerns (-1 for none).
type op struct {
	io    ioSet
	frame int
}

type pstate struct {
	ph     phase
	frame  int  // owned frame while reading, clean, dirty or writing; else -1
	pinned bool // in the set LoadSet last admitted
	// Which copies hold the partition's newest bytes, moved along with
	// the IO each transition returns. Only unsafe reads them: they turn a
	// lost update or a stale copy into a state.
	onDisk, inFrame bool
}

type buffer struct {
	parts []pstate
	owner []int // frame → owning partition, -1 when free
	free  []int // free frames, a stack
	// hold is the most partitions a compiled schedule keeps held: every
	// frame, or all but a landing frame that a read fills before its
	// victim is evicted (schedule.go).
	hold int
}

func newBuffer(numParts, frames int) *buffer {
	b := &buffer{
		parts: slices.Repeat([]pstate{{frame: -1, onDisk: true}}, numParts),
		owner: slices.Repeat([]int{-1}, frames),
		hold:  frames,
	}
	for f := frames - 1; f >= 0; f-- {
		b.free = append(b.free, f)
	}
	return b
}

// held reports whether the partition's frame holds its newest bytes,
// readable now.
func (st pstate) held() bool { return st.ph == clean || st.ph == dirty }

// frameOf returns p's frame while it is resident (pinned and held), else -1.
func (b *buffer) frameOf(p int) int {
	if st := b.parts[p]; st.pinned && st.held() {
		return st.frame
	}
	return -1
}

// fetch starts reading an absent p into a free frame.
func (b *buffer) fetch(p int) op {
	st := &b.parts[p]
	if st.ph != absent || len(b.free) == 0 {
		return op{}
	}
	st.frame, b.free = b.free[len(b.free)-1], b.free[:len(b.free)-1]
	b.owner[st.frame] = p
	st.ph, st.inFrame = reading, st.onDisk
	return op{ioRead, st.frame}
}

// readDone records the end of p's read; a failed one frees its frame.
func (b *buffer) readDone(p int, ok bool) {
	st := &b.parts[p]
	switch {
	case st.ph != reading:
	case ok:
		st.ph = clean
	default:
		b.release(p)
	}
}

// release frees p's frame and leaves p absent.
func (b *buffer) release(p int) {
	st := &b.parts[p]
	b.owner[st.frame] = -1
	b.free = append(b.free, st.frame)
	st.ph, st.frame = absent, -1
}

// pin makes exactly the partitions in set resident, and reports whether
// every one is held; if one is not, nothing changes.
func (b *buffer) pin(set []int) bool {
	for _, p := range set {
		if !b.parts[p].held() {
			return false
		}
	}
	for p := range b.parts {
		b.parts[p].pinned = slices.Contains(set, p)
	}
	return true
}

// dirty marks a resident partition updated: its frame is now the only
// current copy.
func (b *buffer) dirty(p int) {
	if st := &b.parts[p]; st.ph == clean && st.pinned {
		st.ph = dirty
		st.inFrame, st.onDisk = true, false
	}
}

// beginWriteback starts writing a dirty p's frame back to disk.
func (b *buffer) beginWriteback(p int) op {
	st := &b.parts[p]
	if st.ph != dirty {
		return op{}
	}
	st.ph = writing
	return op{ioWrite, st.frame}
}

// endWriteback records the end of p's write-back: the disk is current,
// or the frame stays the only current copy, dirty, for a retry.
func (b *buffer) endWriteback(p int, ok bool) {
	st := &b.parts[p]
	switch {
	case st.ph != writing:
	case ok:
		st.ph, st.onDisk = clean, st.inFrame
	default:
		st.ph = dirty
	}
}

// evict frees an unpinned clean p's frame for reuse.
func (b *buffer) evict(p int) {
	if st := b.parts[p]; st.ph == clean && !st.pinned {
		b.release(p)
	}
}

// drop records that p's disk copy was overwritten from outside (Restore)
// and is now the newest: a held frame is refilled in place. Not while an
// IO of p is in flight.
func (b *buffer) drop(p int) op {
	st := &b.parts[p]
	if !st.held() {
		return op{}
	}
	st.ph, st.onDisk, st.inFrame = clean, true, true
	return op{ioReload, st.frame}
}

// unsafe names the first invariant the state breaks, or returns "". Every
// reachable state must pass it (TestBufferExhaustive,
// TestBufferScheduleExhaustive).
func (b *buffer) unsafe() string {
	unowned := 0
	for f, p := range b.owner {
		if p < 0 {
			unowned++
		}
		if (p < 0) != slices.Contains(b.free, f) || p >= 0 && b.parts[p].frame != f {
			return fmt.Sprintf("frame %d: owner %d, free list %v", f, p, b.free)
		}
	}
	if unowned != len(b.free) {
		return fmt.Sprintf("free list %v holds a frame twice", b.free)
	}
	for p, st := range b.parts {
		bad := ""
		switch {
		case (st.ph == absent) != (st.frame < 0):
			bad = "holds a frame its phase does not"
		case st.ph == absent && !st.onDisk:
			bad = "frame reused while the disk copy is stale"
		case st.ph == clean && !st.onDisk:
			bad = "clean while the disk copy is stale"
		case st.ph != absent && !st.inFrame:
			bad = "frame holds a copy older than the newest"
		case st.pinned && st.ph == reading:
			bad = "admitted before its read landed"
		}
		if bad != "" {
			return fmt.Sprintf("partition %d (%s, frame %d, pinned %v): %s", p, phaseNames[st.ph], st.frame, st.pinned, bad)
		}
	}
	return ""
}
