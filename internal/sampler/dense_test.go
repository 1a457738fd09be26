package sampler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// paperGraph builds the six-node example of paper Figures 1 and 3, where
// the two-hop incoming neighborhood of targets {A, B} uses samples
// C,D ← A and the reuse of A's one-hop sample across both layers.
// Nodes: A=0 B=1 C=2 D=3 E=4 F=5. Edges point src→dst; sampling follows
// incoming edges (aggregation gathers from in-neighbors).
func paperGraph() *graph.Adjacency {
	edges := []graph.Edge{
		{Src: 2, Dst: 0}, // C → A
		{Src: 3, Dst: 0}, // D → A
		{Src: 0, Dst: 1}, // A → B
		{Src: 1, Dst: 0}, // B → A  (extra cycle keeps reuse interesting)
		{Src: 4, Dst: 2}, // E → C
		{Src: 2, Dst: 3}, // C → D
		{Src: 5, Dst: 4}, // F → E
	}
	return graph.BuildAdjacency(6, edges)
}

func TestDENSEPaperExample(t *testing.T) {
	adj := paperGraph()
	s := New(adj, []int{10, 10}, graph.Incoming, 1)
	d := s.Sample([]int32{0, 1})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Δ2 (targets) must be {A, B} in order.
	if got := d.Targets(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("targets = %v", got)
	}
	if d.NumDeltas() != 3 {
		t.Fatalf("deltas = %d, want 3", d.NumDeltas())
	}
	// Every neighbor must resolve through ReprMap to itself.
	for i, nbr := range d.Nbrs {
		if d.NodeIDs[d.ReprMap[i]] != nbr {
			t.Fatalf("ReprMap broken at %d", i)
		}
	}
	// One-hop reuse: node A appears in Δ2; its in-neighbors {C, D, B}
	// should be sampled exactly once even though A's representation is
	// needed in both layers.
	countA := 0
	offs := d.NbrOffsets
	withNbrs := d.NodeIDs[d.OutputStart():]
	for i, v := range withNbrs {
		if v == 0 {
			countA++
			end := len(d.Nbrs)
			if i+1 < len(offs) {
				end = int(offs[i+1])
			}
			if got := end - int(offs[i]); got != 3 {
				t.Fatalf("A has %d sampled in-neighbors, want 3", got)
			}
		}
	}
	if countA != 1 {
		t.Fatalf("node A appears %d times in neighbor-bearing groups, want 1 (sample reuse)", countA)
	}
}

func TestDENSEInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 10
		edges := make([]graph.Edge, rng.Intn(1000)+50)
		for i := range edges {
			edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		adj := graph.BuildAdjacency(n, edges)
		layers := rng.Intn(3) + 1
		fanouts := make([]int, layers)
		for i := range fanouts {
			fanouts[i] = rng.Intn(5) + 1
		}
		s := New(adj, fanouts, graph.Both, seed)
		targets := uniqueTargets(rng, n, rng.Intn(20)+1)
		d := s.Sample(targets)
		if d.Validate() != nil {
			return false
		}
		// Fanout cap: each node's neighbor segment holds at most
		// 2*max(fanouts) entries (both directions).
		maxF := 0
		for _, f := range fanouts {
			if f > maxF {
				maxF = f
			}
		}
		for i := range d.NbrOffsets {
			end := len(d.Nbrs)
			if i+1 < len(d.NbrOffsets) {
				end = int(d.NbrOffsets[i+1])
			}
			if end-int(d.NbrOffsets[i]) > 2*maxF {
				return false
			}
		}
		// Advancing through all layers must keep the structure valid and
		// finish with the targets as the only remaining group.
		for l := 0; l < layers-1; l++ {
			d.AdvanceLayer()
			if d.Validate() != nil {
				return false
			}
		}
		last := d.Targets()
		if len(last) != len(targets) {
			return false
		}
		for i := range last {
			if last[i] != targets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func uniqueTargets(rng *rand.Rand, n, k int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for len(out) < k && len(out) < n {
		v := int32(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestDENSEDeltasAreDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := graph.BuildAdjacency(100, randomEdges(rng, 100, 500))
	s := New(adj, []int{3, 3, 3}, graph.Both, 7)
	d := s.Sample(uniqueTargets(rng, 100, 8))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every sampled neighbor must already be somewhere in NodeIDs — that
	// is the definition of the delta encoding.
	inIDs := map[int32]bool{}
	for _, v := range d.NodeIDs {
		inIDs[v] = true
	}
	for _, u := range d.Nbrs {
		if !inIDs[u] {
			t.Fatalf("neighbor %d missing from NodeIDs", u)
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return edges
}

// denseVsLayered is one depth's sample sizes under DENSE and under
// per-layer re-sampling.
type denseVsLayered struct{ denseNodes, denseEdges, layeredNodes, layeredEdges int }

// table6Sweep samples the same 64 targets with DENSE and with per-layer
// re-sampling at depths 1..3, fanout 10 in both directions, on a seeded
// 2 000-node graph (paper Table 6's setting, scaled down).
func table6Sweep() []denseVsLayered {
	rng := rand.New(rand.NewSource(9))
	adj := graph.BuildAdjacency(2000, randomEdges(rng, 2000, 30000))
	targets := uniqueTargets(rng, 2000, 64)
	var out []denseVsLayered
	for depth := 1; depth <= 3; depth++ {
		fanouts := make([]int, depth)
		for i := range fanouts {
			fanouts[i] = 10
		}
		d := New(adj, fanouts, graph.Both, 1).Sample(targets)
		ls := NewLayered(adj, fanouts, graph.Both, 1).Sample(targets)
		out = append(out, denseVsLayered{d.NumNodes(), d.NumSampledEdges(), ls.NumNodesSampled(), ls.NumEdgesSampled()})
	}
	return out
}

// TestDENSESamplesFewerThanLayered holds paper Table 6's mechanism as
// exact counts: DENSE samples each node's neighbors once and reuses them
// across layers, so it never materializes more nodes or edges than
// per-layer re-sampling.
func TestDENSESamplesFewerThanLayered(t *testing.T) {
	want := []struct{ dense, layered int }{{962, 1026}, {2000, 3026}, {2000, 5026}}
	for i, c := range table6Sweep() {
		if w := want[i]; c.denseNodes != w.dense || c.layeredNodes != w.layered {
			t.Fatalf("depth %d: DENSE %d, layered %d node entries; want %d, %d",
				i+1, c.denseNodes, c.layeredNodes, w.dense, w.layered)
		}
		if c.denseNodes > c.layeredNodes || c.denseEdges > c.layeredEdges {
			t.Fatalf("depth %d: DENSE %d nodes %d edges exceeds layered %d nodes %d edges",
				i+1, c.denseNodes, c.denseEdges, c.layeredNodes, c.layeredEdges)
		}
	}
}

// TestTable6SamplingAdvantageGrowsWithDepth holds paper Table 6's trend:
// the layered/DENSE node ratio rises with every added layer, and at the
// deepest GNN DENSE samples strictly fewer nodes.
func TestTable6SamplingAdvantageGrowsWithDepth(t *testing.T) {
	sweep := table6Sweep()
	prevRatio := 0.0
	for i, c := range sweep {
		ratio := float64(c.layeredNodes) / float64(c.denseNodes)
		if ratio <= prevRatio {
			t.Fatalf("depth %d: layered/DENSE node ratio %.3f did not rise from %.3f", i+1, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if last := sweep[len(sweep)-1]; last.denseNodes >= last.layeredNodes {
		t.Fatalf("at depth %d DENSE sampled %d nodes vs layered %d; reuse should win",
			len(sweep), last.denseNodes, last.layeredNodes)
	}
}

func TestLayeredSampleStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := graph.BuildAdjacency(300, randomEdges(rng, 300, 2000))
	targets := uniqueTargets(rng, 300, 10)
	ls := NewLayered(adj, []int{4, 4}, graph.Both, 3).Sample(targets)
	if len(ls.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(ls.Blocks))
	}
	// Final block's DstNodes are the targets.
	last := ls.Blocks[len(ls.Blocks)-1]
	for i, v := range targets {
		if last.DstNodes[i] != v {
			t.Fatal("targets not preserved")
		}
	}
	for bi, b := range ls.Blocks {
		// SrcNodes start with DstNodes (self rows first).
		for i := range b.DstNodes {
			if b.SrcNodes[i] != b.DstNodes[i] {
				t.Fatalf("block %d: SrcNodes must begin with DstNodes", bi)
			}
		}
		for e := range b.EdgeSrc {
			if int(b.EdgeSrc[e]) >= len(b.SrcNodes) || int(b.EdgeDst[e]) >= len(b.DstNodes) {
				t.Fatalf("block %d: edge index out of range", bi)
			}
		}
		// Chained blocks: this block's SrcNodes are the next-inner block's
		// DstNodes.
		if bi > 0 {
			inner := ls.Blocks[bi-1]
			if len(inner.DstNodes) != len(b.SrcNodes) {
				t.Fatalf("block chain broken at %d", bi)
			}
		}
	}
}

// table7Budget stands in for the accelerator memory that NextDoor runs
// out of in paper Table 7, in sampled entries.
const table7Budget = 50_000

// khopVsDense is one depth's sample sizes under independent k-hop
// sampling (unlimited) and DENSE, plus the error k-hop sampling returns
// under table7Budget.
type khopVsDense struct {
	khopEntries, denseEntries int
	budgetErr                 error
}

// table7Sweep samples the same 64 targets at depths 1..4, fanout 20
// outgoing, on PowerLaw(20 000, 12, 400) (paper Table 7's setting, scaled
// down).
func table7Sweep(t *testing.T) []khopVsDense {
	g := gen.PowerLaw(20_000, 12, 400)
	adj := graph.BuildAdjacency(g.NumNodes, g.Edges)
	targets := uniqueTargets(rand.New(rand.NewSource(400)), g.NumNodes, 64)
	var out []khopVsDense
	for depth := 1; depth <= 4; depth++ {
		fanouts := make([]int, depth)
		for i := range fanouts {
			fanouts[i] = 20
		}
		d := New(adj, fanouts, graph.Outgoing, 400).Sample(targets)
		ks, err := NewKHop(adj, fanouts, graph.Outgoing, 0, 400).Sample(targets)
		if err != nil {
			t.Fatal(err)
		}
		_, budgetErr := NewKHop(adj, fanouts, graph.Outgoing, table7Budget, 400).Sample(targets)
		out = append(out, khopVsDense{ks.TotalEntries(), d.NumNodes(), budgetErr})
	}
	return out
}

// TestKHopBudget holds paper Table 7's mechanism as exact counts: an
// independent k-hop sample (NextDoor's, without reuse) grows
// exponentially with depth, and Sample returns ErrBudget exactly when the
// sample would exceed the budget.
func TestKHopBudget(t *testing.T) {
	want := []struct{ khop, dense int }{{832, 287}, {5968, 532}, {29680, 696}, {103624, 789}}
	for i, c := range table7Sweep(t) {
		if w := want[i]; c.khopEntries != w.khop || c.denseEntries != w.dense {
			t.Fatalf("depth %d: k-hop %d, DENSE %d entries; want %d, %d",
				i+1, c.khopEntries, c.denseEntries, w.khop, w.dense)
		}
		if overrun := c.khopEntries > table7Budget; overrun != (c.budgetErr == ErrBudget) {
			t.Fatalf("depth %d: %d entries against budget %d, Sample returned %v",
				i+1, c.khopEntries, table7Budget, c.budgetErr)
		}
	}
}

// TestTable7OOMShape holds paper Table 7's outcome: k-hop sampling fits
// the budget at depth 1 and runs out of it at depth 4, while DENSE stays
// within it at every depth.
func TestTable7OOMShape(t *testing.T) {
	sweep := table7Sweep(t)
	if err := sweep[0].budgetErr; err != nil {
		t.Fatalf("depth 1 should fit the budget, got %v", err)
	}
	if err := sweep[len(sweep)-1].budgetErr; err != ErrBudget {
		t.Fatalf("independent k-hop sampling should exceed the budget at depth %d, got %v", len(sweep), err)
	}
	for i, c := range sweep {
		if c.denseEntries > table7Budget {
			t.Fatalf("depth %d: DENSE %d entries exceed the budget %d", i+1, c.denseEntries, table7Budget)
		}
	}
}

func TestNegativeSampler(t *testing.T) {
	g := NewNegativeGlobal(50, 1)
	ids := g.Sample(nil, 200)
	if len(ids) != 200 {
		t.Fatal("wrong count")
	}
	for _, v := range ids {
		if v < 0 || v >= 50 {
			t.Fatalf("id %d out of range", v)
		}
	}
	pool := []int32{3, 7, 11}
	p := NewNegativePool(pool, 2)
	for _, v := range p.Sample(nil, 100) {
		if v != 3 && v != 7 && v != 11 {
			t.Fatalf("id %d not in pool", v)
		}
	}
}
