package sampler

import (
	"math/rand"

	"repro/internal/graph"
)

// KHopSampler stands in for NextDoor's accelerated independent k-hop
// sampling kernels (paper Table 7): each target expands a sample tree with
// no reuse or deduplication at all. Per-entry cost is minimal (flat array
// appends, no hashing) — matching NextDoor's advantage at shallow depth —
// but the sample size grows exponentially with depth, matching its
// disadvantage at four and five layers.
type KHopSampler struct {
	Adj     graph.Index
	Fanouts []int
	Dirs    graph.Directions
	rng     *rand.Rand
	floyd   graph.SampleScratch

	// Budget caps the total number of sampled entries, standing in for
	// accelerator memory; Sample returns ErrBudget when exceeded.
	Budget int
}

// ErrBudget is returned by KHopSampler.Sample when the sample exceeds the
// configured memory budget (the paper reports OOM for NextDoor at depth 5).
var ErrBudget = errBudget{}

type errBudget struct{}

func (errBudget) Error() string { return "sampler: k-hop sample exceeds device memory budget" }

// NewKHop returns an independent k-hop sampler with the given entry budget
// (0 means unlimited).
func NewKHop(adj graph.Index, fanouts []int, dirs graph.Directions, budget int, seed int64) *KHopSampler {
	return &KHopSampler{Adj: adj, Fanouts: fanouts, Dirs: dirs, Budget: budget, rng: rand.New(rand.NewSource(seed))}
}

// KHopSample holds the flat per-hop expansion frontier sizes and entries.
type KHopSample struct {
	// Frontiers[h] is the flat list of node instances at hop h (with
	// duplicates, as NextDoor materializes them).
	Frontiers [][]int32
}

// TotalEntries returns the total sampled node instances.
func (ks *KHopSample) TotalEntries() int {
	n := 0
	for _, f := range ks.Frontiers {
		n += len(f)
	}
	return n
}

// Sample expands targets hop by hop with no reuse.
func (s *KHopSampler) Sample(targets []int32) (*KHopSample, error) {
	frontiers := make([][]int32, 0, len(s.Fanouts)+1)
	cur := targets
	frontiers = append(frontiers, cur)
	total := len(cur)
	for hop := 0; hop < len(s.Fanouts); hop++ {
		fanout := s.Fanouts[hop]
		next := make([]int32, 0, len(cur)*fanout)
		for _, v := range cur {
			next = s.Adj.SampleNeighbors(next, v, fanout, s.Dirs, s.rng, &s.floyd)
		}
		total += len(next)
		if s.Budget > 0 && total > s.Budget {
			return nil, ErrBudget
		}
		frontiers = append(frontiers, next)
		cur = next
	}
	return &KHopSample{Frontiers: frontiers}, nil
}
