package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestPartitioningRanges(t *testing.T) {
	pt := New(10, 3) // partSize 4: [0,4) [4,8) [8,10)
	if pt.PartSize != 4 {
		t.Fatalf("partSize = %d", pt.PartSize)
	}
	cases := []struct{ v, p int32 }{{0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {9, 2}}
	for _, c := range cases {
		if got := pt.Of(c.v); got != int(c.p) {
			t.Fatalf("Of(%d) = %d, want %d", c.v, got, c.p)
		}
	}
	if s, e := pt.Range(2); s != 8 || e != 10 {
		t.Fatalf("Range(2) = [%d,%d)", s, e)
	}
	if pt.Rows(2) != 2 {
		t.Fatal("Rows wrong")
	}
}

func TestPartitioningCoversAllNodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1000) + 1
		p := rng.Intn(16) + 1
		if p > n {
			p = n
		}
		pt := New(n, p)
		total := 0
		for i := 0; i < p; i++ {
			total += pt.Rows(i)
		}
		if total != n {
			return false
		}
		for v := 0; v < n; v++ {
			pi := pt.Of(int32(v))
			if pi < 0 || pi >= p {
				return false
			}
			s, e := pt.Range(pi)
			if int32(v) < s || int32(v) >= e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketsPartitionEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pt := New(100, 4)
	edges := make([]graph.Edge, 300)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(100)), Dst: int32(rng.Intn(100))}
	}
	buckets := pt.Buckets(edges)
	total := 0
	for b, bucket := range buckets {
		i, j := b/4, b%4
		for _, e := range bucket {
			if pt.Of(e.Src) != i || pt.Of(e.Dst) != j {
				t.Fatalf("edge %+v in wrong bucket (%d,%d)", e, i, j)
			}
		}
		total += len(bucket)
	}
	if total != len(edges) {
		t.Fatalf("buckets hold %d edges, want %d", total, len(edges))
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	order := RandomOrder(500, 3)
	seen := make([]bool, 500)
	for _, v := range order {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestTrainFirstOrderPlacesTrainingNodesFirst(t *testing.T) {
	train := []int32{42, 7, 99, 13}
	order := TrainFirstOrder(200, train, 5)
	for i, v := range train {
		if order[v] != int32(i) {
			t.Fatalf("train node %d mapped to %d, want %d", v, order[v], i)
		}
	}
	seen := make([]bool, 200)
	for _, v := range order {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestApplyRelabelsEverything(t *testing.T) {
	feats := tensor.New(4, 2)
	for v := 0; v < 4; v++ {
		feats.Set(v, 0, float32(v))
	}
	g := &graph.Graph{
		NumNodes: 4, NumRels: 1,
		Edges:      []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}},
		ValidEdges: []graph.Edge{{Src: 1, Dst: 2}},
		Features:   feats,
		Labels:     []int32{10, 11, 12, 13},
		TrainNodes: []int32{0, 2},
	}
	before := *g
	before.Edges = slices.Clone(g.Edges)
	before.ValidEdges = slices.Clone(g.ValidEdges)
	before.Labels = slices.Clone(g.Labels)
	before.TrainNodes = slices.Clone(g.TrainNodes)
	before.Features = feats.Clone()
	// Reverse relabeling: v -> 3-v.
	r := Apply(g, []int32{3, 2, 1, 0})
	if r.Edges[0].Src != 3 || r.Edges[0].Dst != 2 {
		t.Fatalf("edges not relabeled: %+v", r.Edges[0])
	}
	if r.ValidEdges[0].Src != 2 || r.ValidEdges[0].Dst != 1 {
		t.Fatal("valid edges not relabeled")
	}
	if r.TrainNodes[0] != 3 || r.TrainNodes[1] != 1 {
		t.Fatal("train nodes not relabeled")
	}
	if r.Labels[3] != 10 || r.Labels[0] != 13 {
		t.Fatalf("labels not relabeled: %v", r.Labels)
	}
	if r.Features.At(3, 0) != 0 || r.Features.At(0, 0) != 3 {
		t.Fatal("features not relabeled")
	}
	if !reflect.DeepEqual(*g, before) {
		t.Fatalf("Apply changed its input: %+v, was %+v", *g, before)
	}
}

func TestGroupLogicalBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lg := GroupLogical(12, 4, rng)
	if len(lg.Groups) != 4 {
		t.Fatalf("groups = %d", len(lg.Groups))
	}
	seen := make([]bool, 12)
	for li, group := range lg.Groups {
		if len(group) != 3 {
			t.Fatalf("group %d has %d members", li, len(group))
		}
		for _, p := range group {
			if seen[p] {
				t.Fatal("partition in two groups")
			}
			seen[p] = true
			if lg.Of[p] != li {
				t.Fatal("Of inconsistent with Groups")
			}
		}
	}
	phys := lg.PhysicalSet([]int{0, 2})
	if len(phys) != 6 {
		t.Fatalf("PhysicalSet = %v", phys)
	}
	for i := 1; i < len(phys); i++ {
		if phys[i] < phys[i-1] {
			t.Fatal("PhysicalSet not sorted")
		}
	}
}
