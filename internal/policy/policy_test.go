package policy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInMemoryPlan(t *testing.T) {
	pl := InMemory{P: 4}.NewEpochPlan(rand.New(rand.NewSource(1)))
	if err := pl.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(pl.Visits) != 1 || len(pl.Visits[0].Buckets) != 16 {
		t.Fatalf("in-memory plan shape wrong: %d visits", len(pl.Visits))
	}
	if pl.TotalLoads() != 4 {
		t.Fatalf("loads = %d", pl.TotalLoads())
	}
}

func TestBetaPlanCoversAllBuckets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(14) + 2
		c := rng.Intn(p-1) + 2
		if c > p {
			c = p
		}
		pl := Beta{P: p, C: c}.NewEpochPlan(rng)
		return pl.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCometPlanCoversAllBuckets(t *testing.T) {
	cases := []Comet{
		{P: 8, L: 4, C: 4},
		{P: 12, L: 6, C: 4},
		{P: 16, L: 8, C: 4},
		{P: 16, L: 4, C: 8},
		{P: 24, L: 12, C: 6},
		{P: 8, L: 8, C: 2},
	}
	for _, c := range cases {
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		for seed := int64(0); seed < 5; seed++ {
			pl := c.NewEpochPlan(rand.New(rand.NewSource(seed)))
			if err := pl.Verify(); err != nil {
				t.Fatalf("%+v seed %d: %v", c, seed, err)
			}
			for _, v := range pl.Visits {
				if len(v.Mem) > c.C {
					t.Fatalf("%+v: visit exceeds buffer capacity: %d > %d", c, len(v.Mem), c.C)
				}
			}
		}
	}
}

func TestCometValidateRejectsBadShapes(t *testing.T) {
	bad := []Comet{
		{P: 8, L: 3, C: 4}, // l does not divide p
		{P: 8, L: 4, C: 3}, // group size does not divide c
		{P: 8, L: 8, C: 1}, // fewer than 2 logical in buffer
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("%+v should be invalid", c)
		}
	}
}

func TestBetaEagerAssignmentIsCorrelated(t *testing.T) {
	// BETA's defining property (paper Fig. 4): after the first visit,
	// every newly assigned bucket involves the swapped-in partition.
	rng := rand.New(rand.NewSource(3))
	pl := Beta{P: 12, C: 4}.NewEpochPlan(rng)
	prev := map[int]bool{}
	for vi, v := range pl.Visits {
		cur := map[int]bool{}
		var fresh []int
		for _, p := range v.Mem {
			cur[p] = true
			if !prev[p] {
				fresh = append(fresh, p)
			}
		}
		if vi > 0 && len(fresh) == 1 {
			nw := fresh[0]
			for _, b := range v.Buckets {
				if int(b[0]) != nw && int(b[1]) != nw {
					t.Fatalf("visit %d: bucket (%d,%d) does not involve new partition %d", vi, b[0], b[1], nw)
				}
			}
		}
		prev = cur
	}
}

func TestCometDeferredAssignmentSpreadsBuckets(t *testing.T) {
	// COMET must distribute bucket counts far more evenly than BETA: the
	// max/mean ratio of buckets per visit should be bounded.
	rng := rand.New(rand.NewSource(4))
	comet := Comet{P: 16, L: 8, C: 4}
	pl := comet.NewEpochPlan(rng)
	if err := pl.Verify(); err != nil {
		t.Fatal(err)
	}
	total := 0
	maxB := 0
	for _, v := range pl.Visits {
		total += len(v.Buckets)
		if len(v.Buckets) > maxB {
			maxB = len(v.Buckets)
		}
	}
	mean := float64(total) / float64(len(pl.Visits))
	if float64(maxB) > 6*mean {
		t.Fatalf("COMET visit bucket counts unbalanced: max %d vs mean %.1f", maxB, mean)
	}
}

func TestNodeCacheSingleVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pl := NodeCache{P: 16, C: 6, TrainParts: 2}.NewEpochPlan(rng)
	if len(pl.Visits) != 1 {
		t.Fatalf("visits = %d, want 1 (zero swaps per epoch)", len(pl.Visits))
	}
	mem := pl.Visits[0].Mem
	if len(mem) != 6 {
		t.Fatalf("buffer size %d", len(mem))
	}
	if mem[0] != 0 || mem[1] != 1 {
		t.Fatalf("training partitions not cached: %v", mem)
	}
}

func TestNodeCacheFallbackRotatesThroughAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pl := NodeCache{P: 10, C: 3, TrainParts: 5}.NewEpochPlan(rng)
	seen := map[int]bool{}
	for _, v := range pl.Visits {
		if len(v.Mem) > 3 {
			t.Fatalf("visit exceeds capacity")
		}
		for _, p := range v.Mem {
			seen[p] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("rotation visited %d/10 partitions", len(seen))
	}
}

func TestVerifyLookahead(t *testing.T) {
	// One-swap cover plans stage exactly one partition per future visit:
	// lookahead k needs at most k staged partitions.
	rng := rand.New(rand.NewSource(10))
	pl := Beta{P: 10, C: 4}.NewEpochPlan(rng)
	for k := 1; k <= 3; k++ {
		if err := pl.VerifyLookahead(k, k); err != nil {
			t.Fatalf("lookahead %d with %d staging buffers: %v", k, k, err)
		}
	}
	if err := pl.VerifyLookahead(0, 0); err != nil {
		t.Fatalf("zero lookahead needs no staging: %v", err)
	}
	if err := pl.VerifyLookahead(-1, 4); err == nil {
		t.Fatal("negative lookahead must be rejected")
	}

	// A hand-built plan that swaps the entire buffer each visit: one
	// visit of lookahead already demands a full buffer of staging.
	full := &Plan{NumPartitions: 4, Visits: []Visit{
		{Mem: []int{0, 1}},
		{Mem: []int{2, 3}},
	}}
	if err := full.VerifyLookahead(1, 1); err == nil {
		t.Fatal("full-buffer swap with 1 staging buffer must fail")
	}
	if err := full.VerifyLookahead(1, 2); err != nil {
		t.Fatal(err)
	}

	// NodeCache plans carry no buckets but must still verify lookahead.
	ncPl := NodeCache{P: 10, C: 3, TrainParts: 5}.NewEpochPlan(rand.New(rand.NewSource(11)))
	if err := ncPl.VerifyLookahead(1, 1); err != nil {
		t.Fatalf("rotation plan swaps one partition per visit: %v", err)
	}
}

func TestMaxLookahead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pl := Beta{P: 8, C: 3}.NewEpochPlan(rng)
	if got := pl.MaxLookahead(2); got < 2 {
		t.Fatalf("one-swap plan with 2 staging buffers should allow lookahead >= 2, got %d", got)
	}
	full := &Plan{NumPartitions: 4, Visits: []Visit{
		{Mem: []int{0, 1}},
		{Mem: []int{2, 3}},
	}}
	if got := full.MaxLookahead(1); got != 0 {
		t.Fatalf("full swap with 1 buffer: MaxLookahead = %d, want 0", got)
	}
}

func TestTotalLoadsNearLowerBound(t *testing.T) {
	// The cover traversal's IO should be within a modest factor of the
	// p²/(2(c-1)) pairwise lower bound (paper cites near-minimal IO).
	rng := rand.New(rand.NewSource(7))
	p, c := 32, 8
	pl := Beta{P: p, C: c}.NewEpochPlan(rng)
	loads := pl.TotalLoads()
	lower := float64(p*p) / float64(2*(c-1))
	if float64(loads) > 3*lower+float64(c) {
		t.Fatalf("loads %d too far above lower bound %.0f", loads, lower)
	}
}

func TestCometOneSwapTransitions(t *testing.T) {
	// After the initial fill, consecutive COMET visits differ by exactly
	// one logical partition (p/l physical partitions).
	rng := rand.New(rand.NewSource(8))
	comet := Comet{P: 16, L: 8, C: 4}
	pl := comet.NewEpochPlan(rng)
	group := comet.P / comet.L
	for vi := 1; vi < len(pl.Visits); vi++ {
		prev := map[int]bool{}
		for _, p := range pl.Visits[vi-1].Mem {
			prev[p] = true
		}
		fresh := 0
		for _, p := range pl.Visits[vi].Mem {
			if !prev[p] {
				fresh++
			}
		}
		if fresh > group {
			t.Fatalf("visit %d loads %d physical partitions (> one logical = %d)", vi, fresh, group)
		}
	}
}

// TestCometLogicalPartitionsFig6b holds paper Fig. 6b's mechanism as exact
// counts: at p = 32, c = 8, more logical partitions mean smaller transfer
// groups, so the epoch visits more partition sets |S| while each swap
// moves fewer partitions and the total IO falls. COMET randomises only
// the order of a fixed cover, so both counts are the same for every seed.
func TestCometLogicalPartitionsFig6b(t *testing.T) {
	want := []struct{ l, visits, loads int }{{8, 33, 136}, {16, 46, 98}, {32, 82, 89}}
	for _, w := range want {
		comet := Comet{P: 32, L: w.l, C: 8}
		for seed := int64(9); seed <= 13; seed++ {
			pl := comet.NewEpochPlan(rand.New(rand.NewSource(seed)))
			if err := pl.Verify(); err != nil {
				t.Fatal(err)
			}
			if len(pl.Visits) != w.visits || pl.TotalLoads() != w.loads {
				t.Fatalf("l=%d seed %d: |S| = %d, loads = %d; want %d, %d",
					w.l, seed, len(pl.Visits), pl.TotalLoads(), w.visits, w.loads)
			}
		}
	}
}
