package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// memFrags is an in-memory FragSource over a contiguous partitioning,
// counting the fragments looked up and the Frags calls so tests can assert
// swap incrementality.
type memFrags struct {
	numNodes, numParts, partSize int
	buckets                      [][]Edge
	calls, lookups               int
}

func newMemFrags(numNodes, numParts int, edges []Edge) *memFrags {
	m := &memFrags{
		numNodes: numNodes,
		numParts: numParts,
		partSize: (numNodes + numParts - 1) / numParts,
		buckets:  make([][]Edge, numParts*numParts),
	}
	for _, e := range edges {
		b := int(e.Src)/m.partSize*numParts + int(e.Dst)/m.partSize
		m.buckets[b] = append(m.buckets[b], e)
	}
	return m
}

func (m *memFrags) NumNodes() int      { return m.numNodes }
func (m *memFrags) NumPartitions() int { return m.numParts }
func (m *memFrags) PartSize() int      { return m.partSize }

func (m *memFrags) partRange(i int) (int32, int32) {
	lo := min(i*m.partSize, m.numNodes)
	hi := min(lo+m.partSize, m.numNodes)
	return int32(lo), int32(hi)
}

func (m *memFrags) Frags(buckets [][2]int32, dst []*BucketFrag) ([]*BucketFrag, error) {
	m.lookups++
	for _, b := range buckets {
		i, j := int(b[0]), int(b[1])
		m.calls++
		srcLo, srcHi := m.partRange(i)
		dstLo, dstHi := m.partRange(j)
		dst = append(dst, BuildBucketFrag(srcLo, srcHi, dstLo, dstHi, m.buckets[i*m.numParts+j]))
	}
	return dst, nil
}

// memEdgesOf flattens the pairwise buckets of mem in ascending (i, j)
// order — exactly the edge order the trainers' from-scratch path fed to
// BuildAdjacency (readMemEdges iterated the sorted resident set twice).
func (m *memFrags) memEdgesOf(mem []int) []Edge {
	var edges []Edge
	for _, i := range mem {
		for _, j := range mem {
			edges = append(edges, m.buckets[i*m.numParts+j]...)
		}
	}
	return edges
}

// randomMemSet returns a sorted random subset of [0, p) of size c.
func randomMemSet(rng *rand.Rand, p, c int) []int {
	mem := append([]int(nil), rng.Perm(p)[:c]...)
	sortInts(mem)
	return mem
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// swapOne replaces one random resident partition with a random absent one.
func swapOne(rng *rand.Rand, mem []int, p int) []int {
	in := make(map[int]bool, len(mem))
	for _, m := range mem {
		in[m] = true
	}
	var out []int
	for i := 0; i < p; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	next := append([]int(nil), mem...)
	if len(out) > 0 {
		next[rng.Intn(len(next))] = out[rng.Intn(len(out))]
	}
	sortInts(next)
	return next
}

// TestSegmentedMatchesBuildAdjacency is the differential test of the
// ordering contract: across a randomized swap sequence, the incremental
// view must expose the same neighbors in the same order — and therefore
// draw the same samples for the same RNG state — as a from-scratch
// BuildAdjacency over the flattened resident buckets.
func TestSegmentedMatchesBuildAdjacency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		n := 150 + rng.Intn(200)
		p := 4 + rng.Intn(5)
		nEdges := 500 + rng.Intn(2000)
		edges := make([]Edge, nEdges)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(6)), Dst: int32(rng.Intn(n))}
		}
		src := newMemFrags(n, p, edges)
		c := 2 + rng.Intn(p-1)
		if c > p {
			c = p
		}

		seg := NewSegmented(src)
		mem := randomMemSet(rng, p, c)
		for step := 0; step < 8; step++ {
			var err error
			seg, err = seg.Swap(mem)
			if err != nil {
				t.Fatal(err)
			}
			ref := BuildAdjacency(n, src.memEdgesOf(mem))
			if seg.NumEdges() != ref.NumEdges() {
				t.Fatalf("seed %d step %d: NumEdges %d != %d", seed, step, seg.NumEdges(), ref.NumEdges())
			}
			var scA, scB SampleScratch
			rngA := rand.New(rand.NewSource(seed*1000 + int64(step)))
			rngB := rand.New(rand.NewSource(seed*1000 + int64(step)))
			for v := int32(0); v < int32(n); v++ {
				gotOut := seg.AppendOutNeighbors(nil, v)
				wantOut := ref.OutNeighbors(v)
				if !equalInt32(gotOut, wantOut) {
					t.Fatalf("seed %d step %d mem %v: out(%d) = %v, want %v", seed, step, mem, v, gotOut, wantOut)
				}
				gotIn := seg.AppendInNeighbors(nil, v)
				if !equalInt32(gotIn, ref.InNeighbors(v)) {
					t.Fatalf("seed %d step %d: in(%d) = %v, want %v", seed, step, v, gotIn, ref.InNeighbors(v))
				}
				// Relations ride the same stable sort: the parallel rel
				// arrays must concatenate in the same order as the
				// neighbor lists.
				if !equalInt32(seg.AppendOutRels(nil, v), ref.OutRels(v)) {
					t.Fatalf("seed %d step %d: outRels(%d) mismatch", seed, step, v)
				}
				if !equalInt32(seg.AppendInRels(nil, v), ref.InRels(v)) {
					t.Fatalf("seed %d step %d: inRels(%d) mismatch", seed, step, v)
				}
				if seg.OutDegree(v) != ref.OutDegree(v) || seg.InDegree(v) != ref.InDegree(v) {
					t.Fatalf("seed %d step %d: degree mismatch at %d", seed, step, v)
				}
				fanout := 1 + rngA.Intn(4) // consumes the same rngB draw below
				_ = rngB.Intn(4)
				gotS := seg.SampleNeighbors(nil, v, fanout, Both, rngA, &scA)
				wantS := ref.SampleNeighbors(nil, v, fanout, Both, rngB, &scB)
				if !equalInt32(gotS, wantS) {
					t.Fatalf("seed %d step %d: sample(%d, fanout %d) = %v, want %v (identical rng state)",
						seed, step, v, fanout, gotS, wantS)
				}
			}
			mem = swapOne(rng, mem, p)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegmentedSwapIsIncremental: a one-partition swap must fetch only
// the admitted partition's row and column fragments (2c-1 buckets), not
// the full c², in one lookup.
func TestSegmentedSwapIsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := make([]Edge, 3000)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(400)), Dst: int32(rng.Intn(400))}
	}
	const p, c = 8, 4
	src := newMemFrags(400, p, edges)
	seg, err := NewSegmented(src).Swap([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if src.calls != c*c || src.lookups != 1 {
		t.Fatalf("initial fill fetched %d fragments in %d lookups, want %d in 1", src.calls, src.lookups, c*c)
	}
	src.calls, src.lookups = 0, 0
	seg, err = seg.Swap([]int{0, 1, 2, 5}) // evict 3, admit 5
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*c - 1; src.calls != want || src.lookups != 1 {
		t.Fatalf("one-partition swap fetched %d fragments in %d lookups, want %d in 1", src.calls, src.lookups, want)
	}
	src.calls, src.lookups = 0, 0
	if _, err := seg.Swap([]int{0, 1, 2, 5}); err != nil { // no-op swap
		t.Fatal(err)
	}
	if src.calls != 0 {
		t.Fatalf("identical swap fetched %d fragments, want 0", src.calls)
	}
}

// TestSegmentedAppendEdgesKeepsFileOrder: across a randomized swap
// sequence, AppendEdges gives back any list of resident buckets exactly
// as the buckets hold them (file order, relations included), concatenated
// in the order listed — whether the view built the fragment in this swap
// or shared it from an earlier one — and refuses a bucket with a
// partition outside the view, leaving dst as it was.
func TestSegmentedAppendEdgesKeepsFileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, p, c = 300, 6, 3
	edges := make([]Edge, 4000)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(5)), Dst: int32(rng.Intn(n))}
	}
	src := newMemFrags(n, p, edges)
	seg := NewSegmented(src)
	mem := randomMemSet(rng, p, c)
	for step := 0; step < 10; step++ {
		var err error
		if seg, err = seg.Swap(mem); err != nil {
			t.Fatal(err)
		}
		var buckets [][2]int32
		var want []Edge
		for _, k := range rng.Perm(c * c) {
			i, j := mem[k/c], mem[k%c]
			buckets = append(buckets, [2]int32{int32(i), int32(j)})
			want = append(want, src.buckets[i*p+j]...)
		}
		got, err := seg.AppendEdges([]Edge{{Src: -1}}, buckets)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want)+1 || got[0] != (Edge{Src: -1}) {
			t.Fatalf("step %d: AppendEdges returned %d edges after the prefix, want %d", step, len(got)-1, len(want))
		}
		for k := range want {
			if got[k+1] != want[k] {
				t.Fatalf("step %d: edge %d = %v, want %v", step, k, got[k+1], want[k])
			}
		}
		out := 0
		for out < p && slices.Contains(mem, out) {
			out++
		}
		for _, b := range [][2]int32{{int32(mem[0]), int32(out)}, {int32(out), int32(mem[0])}, {int32(mem[0]), int32(p)}, {-1, int32(mem[0])}} {
			dst := []Edge{{Src: 7}}
			got, err := seg.AppendEdges(dst, append(buckets[:1:1], b))
			if err == nil {
				t.Fatalf("step %d: bucket %v outside %v accepted", step, b, mem)
			}
			if !slices.Equal(got, dst) {
				t.Fatalf("step %d: refused AppendEdges left %d edges in dst, want the 1 it had", step, len(got))
			}
		}
		mem = swapOne(rng, mem, p)
	}
}

// TestSegmentedNonResident: nodes of non-resident partitions have no
// neighbors in the view.
func TestSegmentedNonResident(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 9}, {Src: 9, Dst: 0}}
	src := newMemFrags(10, 5, edges)
	seg, err := NewSegmented(src).Swap([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if seg.OutDegree(9) != 0 || seg.InDegree(9) != 0 {
		t.Fatal("non-resident node must have zero degree")
	}
	if got := seg.AppendOutNeighbors(nil, 9); len(got) != 0 {
		t.Fatalf("non-resident neighbors = %v", got)
	}
	// Edges crossing into non-resident partitions are absent too.
	if seg.OutDegree(0) != 0 || seg.InDegree(0) != 0 {
		t.Fatal("cross-partition edge leaked into the view")
	}
}

func TestSegmentedSwapRejectsBadSets(t *testing.T) {
	src := newMemFrags(10, 5, nil)
	seg := NewSegmented(src)
	if _, err := seg.Swap([]int{1, 0}); err == nil {
		t.Fatal("unsorted set accepted")
	}
	if _, err := seg.Swap([]int{0, 0}); err == nil {
		t.Fatal("duplicate set accepted")
	}
	if _, err := seg.Swap([]int{0, 7}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// TestSampleNeighborsZeroAlloc: with a caller-owned scratch and a
// preallocated destination, Floyd sampling allocates nothing — on both
// the flat and the segmented index.
func TestSampleNeighborsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := make([]Edge, 4000)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(100)), Dst: int32(rng.Intn(100))}
	}
	adj := BuildAdjacency(100, edges)
	src := newMemFrags(100, 4, edges)
	seg, err := NewSegmented(src).Swap([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var sc SampleScratch
	dst := make([]int32, 0, 64)
	for _, idx := range []Index{adj, seg} {
		idx := idx
		// Warm the scratch, then demand zero steady-state allocations.
		dst = idx.SampleNeighbors(dst[:0], 5, 8, Both, rng, &sc)
		allocs := testing.AllocsPerRun(200, func() {
			dst = idx.SampleNeighbors(dst[:0], 5, 8, Both, rng, &sc)
		})
		if allocs != 0 {
			t.Fatalf("%T.SampleNeighbors allocates %.1f/op, want 0", idx, allocs)
		}
	}
}
