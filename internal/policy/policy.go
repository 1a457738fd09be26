// Package policy implements the partition replacement and mini-batch
// assignment policies of MariusGNN §5: the sequence S = {S_1, S_2, …} of
// partition sets to load into the buffer during one epoch, and the
// sequence X = {X_1, X_2, …} of edge buckets whose training examples are
// consumed while each S_i is resident.
//
// Implemented policies:
//
//   - InMemory: the whole graph in one visit (M-GNN_Mem).
//   - BETA: the greedy IO-minimizing policy from Marius (OSDI '21), which
//     assigns every newly-available bucket eagerly to the visit that first
//     covers it — minimizing IO but producing correlated example order
//     (paper §5.1, Fig. 4).
//   - COMET: two-level partitioning (random logical grouping each epoch) +
//     randomized deferred bucket assignment (paper §5.1, Fig. 5).
//   - NodeCache: the node-classification policy of §5.2 (training nodes
//     statically cached, remaining partitions rotated randomly).
package policy

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/partition"
)

// Visit is one step of an epoch: the physical partitions resident in the
// buffer and the edge buckets assigned for training while they are.
type Visit struct {
	Mem     []int      // sorted physical partition IDs in memory (S_i)
	Buckets [][2]int32 // edge buckets (i,j) to train on (X_i)
}

// Plan is the epoch schedule produced by a policy.
type Plan struct {
	NumPartitions int
	Visits        []Visit
}

// TotalLoads counts partition loads across the epoch (the initial fill
// plus every swap), the policy-level IO measure of paper §6.
func (pl *Plan) TotalLoads() int {
	loads := 0
	prev := map[int]bool{}
	for _, v := range pl.Visits {
		cur := make(map[int]bool, len(v.Mem))
		for _, p := range v.Mem {
			cur[p] = true
			if !prev[p] {
				loads++
			}
		}
		prev = cur
	}
	return loads
}

// Verify checks the two correctness invariants every link-prediction plan
// must satisfy: (1) each of the p² buckets is assigned to exactly one
// visit, and (2) a bucket is only assigned to a visit whose memory set
// contains both of its partitions.
func (pl *Plan) Verify() error {
	p := pl.NumPartitions
	seen := make([]bool, p*p)
	for vi, v := range pl.Visits {
		mem := make(map[int]bool, len(v.Mem))
		for _, m := range v.Mem {
			mem[m] = true
		}
		for _, b := range v.Buckets {
			id := int(b[0])*p + int(b[1])
			if seen[id] {
				return fmt.Errorf("policy: bucket (%d,%d) assigned twice", b[0], b[1])
			}
			seen[id] = true
			if !mem[int(b[0])] || !mem[int(b[1])] {
				return fmt.Errorf("policy: visit %d assigned bucket (%d,%d) without both partitions in memory", vi, b[0], b[1])
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("policy: bucket (%d,%d) never assigned", id/p, id%p)
		}
	}
	return nil
}

// Policy generates a fresh epoch plan. Implementations draw all
// randomness from rng so epochs are reproducible.
type Policy interface {
	NewEpochPlan(rng *rand.Rand) *Plan
	// Name identifies the policy in logs and benchmark tables.
	Name() string
}

// coverSequence produces a sequence of size-cap subsets of [0,n) such that
// every unordered pair (including self-pairs) co-resides in at least one
// subset, with consecutive subsets differing by exactly one swap after the
// initial fill. It uses the pivot-block traversal whose total loads are
// within a small factor of the n²/(2(c-1)) lower bound — the same family
// of near-IO-minimal one-swap orderings as Marius' BETA.
//
// order is a permutation of [0,n) controlling randomization.
func coverSequence(n, cap int, order []int) [][]int {
	if cap < 2 {
		panic("policy: buffer capacity must be at least 2")
	}
	if cap >= n {
		set := append([]int(nil), order...)
		return [][]int{set}
	}
	var seq [][]int
	remaining := append([]int(nil), order...)
	cur := make([]int, 0, cap)
	emit := func() {
		s := append([]int(nil), cur...)
		seq = append(seq, s)
	}
	// swapTo transitions cur toward target one swap at a time, emitting a
	// visit per swap; used between levels so the one-swap invariant holds.
	swapTo := func(target []int) {
		tset := make(map[int]bool, len(target))
		for _, t := range target {
			tset[t] = true
		}
		var keep, evict []int
		inCur := make(map[int]bool, len(cur))
		for _, c := range cur {
			inCur[c] = true
			if tset[c] {
				keep = append(keep, c)
			} else {
				evict = append(evict, c)
			}
		}
		var load []int
		for _, t := range target {
			if !inCur[t] {
				load = append(load, t)
			}
		}
		if len(cur) == 0 { // initial fill: one visit once full
			cur = append(cur, target...)
			emit()
			return
		}
		for i, t := range load {
			if i < len(evict) {
				// replace evict[i] with t
				for j, c := range cur {
					if c == evict[i] {
						cur[j] = t
						break
					}
				}
			} else {
				cur = append(cur, t)
			}
			emit()
		}
		_ = keep
	}

	for len(remaining) > cap {
		pivot := remaining[:cap-1]
		rest := remaining[cap-1:]
		// Load pivot + rest[0].
		target := append(append([]int(nil), pivot...), rest[0])
		swapTo(target)
		// Cycle the remaining partitions through the last slot.
		for _, r := range rest[1:] {
			for j := range cur {
				if cur[j] == target[cap-1] {
					cur[j] = r
					target[cap-1] = r
					break
				}
			}
			emit()
		}
		remaining = rest
	}
	swapTo(remaining)
	return seq
}

// InMemory trains with the full graph resident (a single visit containing
// every partition and every bucket).
type InMemory struct{ P int }

// Name implements Policy.
func (m InMemory) Name() string { return "InMemory" }

// NewEpochPlan implements Policy.
func (m InMemory) NewEpochPlan(rng *rand.Rand) *Plan {
	mem := make([]int, m.P)
	buckets := make([][2]int32, 0, m.P*m.P)
	for i := range mem {
		mem[i] = i
	}
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			buckets = append(buckets, [2]int32{int32(i), int32(j)})
		}
	}
	rng.Shuffle(len(buckets), func(i, j int) { buckets[i], buckets[j] = buckets[j], buckets[i] })
	return &Plan{NumPartitions: m.P, Visits: []Visit{{Mem: mem, Buckets: buckets}}}
}

// Beta is the greedy BETA policy from Marius: near-minimal IO with eager
// bucket assignment (each bucket is trained at the first visit where both
// its partitions co-reside).
type Beta struct {
	P int // physical partitions
	C int // buffer capacity in physical partitions
}

// Name implements Policy.
func (b Beta) Name() string { return "BETA" }

// NewEpochPlan implements Policy.
func (b Beta) NewEpochPlan(rng *rand.Rand) *Plan {
	order := rng.Perm(b.P)
	sets := coverSequence(b.P, b.C, order)
	covered := make([]bool, b.P*b.P)
	plan := &Plan{NumPartitions: b.P}
	for _, mem := range sets {
		v := Visit{Mem: append([]int(nil), mem...)}
		slices.Sort(v.Mem)
		for _, i := range v.Mem {
			for _, j := range v.Mem {
				if !covered[i*b.P+j] {
					covered[i*b.P+j] = true
					v.Buckets = append(v.Buckets, [2]int32{int32(i), int32(j)})
				}
			}
		}
		plan.Visits = append(plan.Visits, v)
	}
	return plan
}

// Comet is the COMET policy (paper §5.1): physical partitions are grouped
// into L random logical partitions each epoch; the cover traversal runs at
// logical granularity; and each bucket is assigned uniformly at random to
// one of the visits where both of its partitions co-reside (randomized
// deferred processing).
type Comet struct {
	P int // physical partitions
	L int // logical partitions; must divide P
	C int // buffer capacity in physical partitions; C*L/P must be an integer ≥ 2
}

// Name implements Policy.
func (c Comet) Name() string { return "COMET" }

// Validate checks the structural constraints on (P, L, C).
func (c Comet) Validate() error {
	if c.P%c.L != 0 {
		return fmt.Errorf("policy: logical partitions %d must divide physical %d", c.L, c.P)
	}
	group := c.P / c.L
	if c.C%group != 0 {
		return fmt.Errorf("policy: buffer capacity %d must be a multiple of the logical group size %d", c.C, group)
	}
	if c.C/group < 2 {
		return fmt.Errorf("policy: buffer must hold at least 2 logical partitions (c_l = %d)", c.C/group)
	}
	return nil
}

// NewEpochPlan implements Policy.
func (c Comet) NewEpochPlan(rng *rand.Rand) *Plan {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	group := c.P / c.L
	capL := c.C / group
	lg := partition.GroupLogical(c.P, c.L, rng)
	sets := coverSequence(c.L, capL, rng.Perm(c.L))

	plan := &Plan{NumPartitions: c.P}
	for _, ls := range sets {
		plan.Visits = append(plan.Visits, Visit{Mem: lg.PhysicalSet(ls)})
	}

	// Deferred randomized assignment: for each bucket, pick one visit
	// uniformly among those where both partitions co-reside.
	visitsOf := make([][]int, c.P) // partition -> visits containing it
	for vi, v := range plan.Visits {
		for _, p := range v.Mem {
			visitsOf[p] = append(visitsOf[p], vi)
		}
	}
	for i := 0; i < c.P; i++ {
		for j := 0; j < c.P; j++ {
			shared := intersectSorted(visitsOf[i], visitsOf[j])
			if len(shared) == 0 {
				panic(fmt.Sprintf("policy: COMET cover misses pair (%d,%d)", i, j))
			}
			vi := shared[rng.Intn(len(shared))]
			plan.Visits[vi].Buckets = append(plan.Visits[vi].Buckets, [2]int32{int32(i), int32(j)})
		}
	}
	return plan
}

// NodeCache is the node-classification policy of §5.2: the first
// TrainParts partitions (which hold every training node after the
// train-first relabeling) stay cached for the whole epoch, and the
// remaining buffer slots hold random disk partitions. When the training
// nodes do not fit (TrainParts ≥ C), it degrades to random rotation until
// every partition has been resident once. Only the rotation's visits that
// bring in a training partition for the first time carry targets; the
// trainer skips the others, so their partitions are never read.
type NodeCache struct {
	P          int
	C          int
	TrainParts int
}

// Name implements Policy.
func (n NodeCache) Name() string { return "NodeCache" }

// NewEpochPlan implements Policy. Buckets are not used by the
// node-classification trainer; visits carry only memory sets.
func (n NodeCache) NewEpochPlan(rng *rand.Rand) *Plan {
	plan := &Plan{NumPartitions: n.P}
	if n.TrainParts < n.C {
		mem := make([]int, 0, n.C)
		for i := 0; i < n.TrainParts; i++ {
			mem = append(mem, i)
		}
		rest := rng.Perm(n.P - n.TrainParts)
		for _, r := range rest {
			if len(mem) == n.C {
				break
			}
			mem = append(mem, n.TrainParts+r)
		}
		slices.Sort(mem)
		plan.Visits = append(plan.Visits, Visit{Mem: mem})
		return plan
	}
	// Fallback: rotate random partitions until all have appeared.
	order := rng.Perm(n.P)
	cur := append([]int(nil), order[:n.C]...)
	emit := func() {
		v := Visit{Mem: append([]int(nil), cur...)}
		slices.Sort(v.Mem)
		plan.Visits = append(plan.Visits, v)
	}
	emit()
	for next := n.C; next < n.P; next++ {
		cur[rng.Intn(len(cur))] = order[next]
		emit()
	}
	return plan
}

// intersectSorted intersects two ascending int slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
