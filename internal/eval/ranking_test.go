package eval

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decoder"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// bruteRank ranks one side of one edge by scoring every candidate
// individually and applying the realistic rank rule (1 + greater +
// equal/2) with a hash-set filter — no chunking, no sorted-merge, no
// fused kernel batching. ScoreOne performs the same float32 operations as
// one fused-kernel element, so ranks (and hence MRR/Hits) must match the
// streamed evaluator exactly. cands nil means every entity.
func bruteRank(d decoder.Decoder, rel, table *tensor.Tensor, e graph.Edge, tail bool, known map[int32]bool, cands []int32) float64 {
	q := make([]float32, d.Dim())
	var target int32
	if tail {
		d.TailQueryInto(q, table.Row(int(e.Src)), rel.Row(int(e.Rel)))
		target = e.Dst
	} else {
		d.HeadQueryInto(q, table.Row(int(e.Dst)), rel.Row(int(e.Rel)))
		target = e.Src
	}
	var qn float32
	if d.Norms() {
		qn = decoder.SqNorm(q)
	}
	score := func(cand int32) float32 {
		row := table.Row(int(cand))
		var cn float32
		if d.Norms() {
			cn = decoder.SqNorm(row)
		}
		return decoder.ScoreOne(d, q, row, qn, cn)
	}
	ts := score(target)
	if cands == nil {
		cands = allIDs(table.Rows)
	}
	rank := 1.0
	for _, cand := range cands {
		if cand == target || known[cand] {
			continue
		}
		if s := score(cand); s > ts {
			rank++
		} else if s == ts {
			rank += 0.5
		}
	}
	return rank
}

func allIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// bruteRanking is the full brute-force protocol over a held-out split.
func bruteRanking(d decoder.Decoder, rel, table *tensor.Tensor, evalEdges []graph.Edge, filterSets [][]graph.Edge, cands []int32, ks []int) RankingResult {
	tails := map[int64]map[int32]bool{}
	heads := map[int64]map[int32]bool{}
	for _, set := range filterSets {
		for _, e := range set {
			tk, hk := pairKey(e.Src, e.Rel), pairKey(e.Dst, e.Rel)
			if tails[tk] == nil {
				tails[tk] = map[int32]bool{}
			}
			tails[tk][e.Dst] = true
			if heads[hk] == nil {
				heads[hk] = map[int32]bool{}
			}
			heads[hk][e.Src] = true
		}
	}
	res := RankingResult{Hits: map[int]float64{}}
	var sumRR float64
	hits := map[int]int64{}
	for _, e := range evalEdges {
		for _, tail := range []bool{true, false} {
			var known map[int32]bool
			if filterSets != nil {
				if tail {
					known = tails[pairKey(e.Src, e.Rel)]
				} else {
					known = heads[pairKey(e.Dst, e.Rel)]
				}
			}
			r := bruteRank(d, rel, table, e, tail, known, cands)
			sumRR += 1 / r
			for _, k := range ks {
				if r <= float64(k) {
					hits[k]++
				}
			}
			res.Ranked++
		}
	}
	res.MRR = sumRR / float64(res.Ranked)
	for _, k := range ks {
		res.Hits[k] = float64(hits[k]) / float64(res.Ranked)
	}
	return res
}

func randEdges(rng *rand.Rand, n, rels, count int) []graph.Edge {
	edges := make([]graph.Edge, count)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: int32(rng.Intn(n)), Rel: int32(rng.Intn(rels)), Dst: int32(rng.Intn(n)),
		}
	}
	return edges
}

// TestRankingMatchesBruteForce is the protocol differential: the streamed
// chunked evaluator must produce exactly the brute-force MRR and Hits@k —
// filtered and raw, against every entity and against a sampled candidate
// list, for every decoder, at every worker count, batch size and chunk
// width (including chunks that straddle the entity count).
func TestRankingMatchesBruteForce(t *testing.T) {
	const (
		n       = 47
		numRels = 4
		dim     = 8
	)
	rng := rand.New(rand.NewSource(42))
	table := tensor.New(n, dim)
	table.RandNormal(rng, 1)
	train := randEdges(rng, n, numRels, 200)
	valid := randEdges(rng, n, numRels, 30)
	test := randEdges(rng, n, numRels, 25)
	adj := graph.BuildAdjacency(n, train)
	ks := []int{1, 3, 10}
	sample := SampleCandidates(n, 20, 9)

	for _, kind := range []string{decoder.KindDistMult, decoder.KindComplEx, decoder.KindTransE} {
		ps := nn.NewParamSet()
		d, err := decoder.New(kind, ps, numRels, dim, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		rel := d.RelParam().Value

		for _, tc := range []struct {
			filtered bool
			cands    []int32
		}{{false, nil}, {true, nil}, {false, sample}, {true, sample}} {
			filtered := tc.filtered
			var filter *Filter
			var filterSets [][]graph.Edge
			if filtered {
				filter = NewFilter(adj, valid, test)
				filterSets = [][]graph.Edge{train, valid, test}
			}
			want := bruteRanking(d, rel, table, test, filterSets, tc.cands, ks)

			for _, workers := range []int{1, 2, 4} {
				for _, batch := range []int{1, 7, 64} {
					for _, chunk := range []int{13, 47, 512} {
						got := Ranking(RankingConfig{
							Dec: d, Rel: rel, Table: table, Candidates: tc.cands, Ks: ks,
							Filter: filter, BatchSize: batch, Chunk: chunk, Workers: workers,
						}, test)
						if got.Ranked != want.Ranked {
							t.Fatalf("%s filtered=%v: ranked %d != %d", kind, filtered, got.Ranked, want.Ranked)
						}
						if got.MRR != want.MRR {
							t.Fatalf("%s filtered=%v w=%d b=%d c=%d: MRR %v != brute %v",
								kind, filtered, workers, batch, chunk, got.MRR, want.MRR)
						}
						for _, k := range ks {
							if got.Hits[k] != want.Hits[k] {
								t.Fatalf("%s filtered=%v w=%d b=%d c=%d: Hits@%d %v != brute %v",
									kind, filtered, workers, batch, chunk, k, got.Hits[k], want.Hits[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestRankingDeterministicTies forces score ties with duplicate entity
// rows and pins the tie rule: every equal-scoring candidate adds half a
// rank, whatever its ID.
func TestRankingDeterministicTies(t *testing.T) {
	// Entities 0..3 identical, so every candidate ties with the target.
	table := tensor.FromSlice(4, 2, []float32{
		1, 2,
		1, 2,
		1, 2,
		1, 2,
	})
	ps := nn.NewParamSet()
	d := decoder.NewDistMult(ps, 1, 2, rand.New(rand.NewSource(1)))
	edges := []graph.Edge{{Src: 0, Rel: 0, Dst: 2}}

	got := Ranking(RankingConfig{Dec: d, Rel: d.Rel.Value, Table: table}, edges)
	// Tail target 2 ties with 0, 1 and 3; head target 0 with 1, 2 and 3:
	// both rank 1 + 3/2.
	wantMRR := 1 / 2.5
	if got.MRR != wantMRR {
		t.Fatalf("tie MRR = %v, want %v", got.MRR, wantMRR)
	}
}

// TestFilterExcludesKnownTriples checks the filter changes a rank only by
// removing known positives, never the target itself.
func TestFilterExcludesKnownTriples(t *testing.T) {
	// Entity 3 scores highest but is a known tail of (0, r0); filtered
	// ranking of target 1 must ignore it.
	table := tensor.FromSlice(4, 2, []float32{
		1, 0, // 0
		2, 0, // 1: target
		1, 0, // 2
		9, 0, // 3: known positive, best raw score
	})
	train := []graph.Edge{{Src: 0, Rel: 0, Dst: 3}}
	adj := graph.BuildAdjacency(4, train)
	ps := nn.NewParamSet()
	d := decoder.NewDistMult(ps, 1, 2, rand.New(rand.NewSource(1)))
	d.Rel.Value.Data[0], d.Rel.Value.Data[1] = 1, 1

	edges := []graph.Edge{{Src: 0, Rel: 0, Dst: 1}}
	raw := Ranking(RankingConfig{Dec: d, Rel: d.Rel.Value, Table: table}, edges)
	filt := Ranking(RankingConfig{Dec: d, Rel: d.Rel.Value, Table: table, Filter: NewFilter(adj)}, edges)

	// Tail side: raw rank 2 (entity 3 outranks), filtered rank 1.
	// Head side: q = dst∘rel = [2,0] scores candidates 2, 4, 2, 18, so
	// target 0 has two greater (1, 3) and one equal (2): rank 3.5, raw
	// and filtered alike (no known heads of (r0, 1)).
	if raw.MRR >= filt.MRR {
		t.Fatalf("filtered MRR %v not better than raw %v", filt.MRR, raw.MRR)
	}
	head := 3.5 // a variable, so the sums round as float64 like the evaluator's
	wantRaw := (1/2.0 + 1/head) / 2
	wantFilt := (1/1.0 + 1/head) / 2
	if raw.MRR != wantRaw || filt.MRR != wantFilt {
		t.Fatalf("raw %v (want %v), filtered %v (want %v)", raw.MRR, wantRaw, filt.MRR, wantFilt)
	}
}

// TestRankingPlantedTies plants ties and holds every protocol to the
// closed-form realistic rank, rank = 1 + greater + equal/2: with every
// entity row equal, each eligible candidate ties with the target; with
// even IDs one row and odd IDs another, the target ties with its own
// group and the other group scores strictly above or below it. Raw and
// filtered, against every entity and a sampled candidate list, for every
// decoder, the evaluator must report exactly that MRR and Hits@k at 1 and
// 4 workers and at every batch size and chunk width.
func TestRankingPlantedTies(t *testing.T) {
	const (
		n       = 40
		numRels = 3
		dim     = 4
	)
	rng := rand.New(rand.NewSource(8))
	train := randEdges(rng, n, numRels, 120)
	valid := randEdges(rng, n, numRels, 10)
	test := randEdges(rng, n, numRels, 12)
	adj := graph.BuildAdjacency(n, train)
	ks := []int{1, 3, 10, 30}
	rowA, rowB := []float32{0.5, -1, 0.25, 2}, []float32{-0.75, 0.5, 1, 0.125}

	tails, heads := map[int64]map[int32]bool{}, map[int64]map[int32]bool{}
	for _, set := range [][]graph.Edge{train, valid, test} {
		for _, e := range set {
			tk, hk := pairKey(e.Src, e.Rel), pairKey(e.Dst, e.Rel)
			if tails[tk] == nil {
				tails[tk] = map[int32]bool{}
			}
			if heads[hk] == nil {
				heads[hk] = map[int32]bool{}
			}
			tails[tk][e.Dst], heads[hk][e.Src] = true, true
		}
	}

	for _, kind := range []string{decoder.KindDistMult, decoder.KindComplEx, decoder.KindTransE} {
		d, err := decoder.New(kind, nn.NewParamSet(), numRels, dim, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		rel := d.RelParam().Value
		for _, halves := range []bool{false, true} {
			table := tensor.New(n, dim)
			group := func(id int32) int32 {
				if halves {
					return id % 2
				}
				return 0
			}
			for v := int32(0); v < n; v++ {
				row := rowA
				if group(v) == 1 {
					row = rowB
				}
				copy(table.Row(int(v)), row)
			}
			// closedForm counts one query: the target's group ties, the
			// other group is all greater or all lower, decided by one
			// scalar score per group.
			closedForm := func(src, relID int32, tail bool, target int32, known map[int32]bool, cands []int32) float64 {
				q := make([]float32, dim)
				if tail {
					d.TailQueryInto(q, table.Row(int(src)), rel.Row(int(relID)))
				} else {
					d.HeadQueryInto(q, table.Row(int(src)), rel.Row(int(relID)))
				}
				var qn float32
				if d.Norms() {
					qn = decoder.SqNorm(q)
				}
				score := func(row []float32) float32 { return decoder.ScoreOne(d, q, row, qn, decoder.SqNorm(row)) }
				same, other := rowA, rowB
				if group(target) == 1 {
					same, other = rowB, rowA
				}
				otherAbove := score(other) > score(same)
				if cands == nil {
					cands = allIDs(n)
				}
				var greater, equal int64
				for _, c := range cands {
					switch {
					case c == target || known[c]:
					case group(c) == group(target):
						equal++
					case otherAbove:
						greater++
					}
				}
				return 1 + float64(greater) + float64(equal)/2
			}

			for _, cands := range [][]int32{nil, SampleCandidates(n, 15, 4)} {
				for _, filtered := range []bool{false, true} {
					var filter *Filter
					if filtered {
						filter = NewFilter(adj, valid, test)
					}
					var rr float64
					hits := map[int]int64{}
					for _, e := range test {
						var kt, kh map[int32]bool
						if filtered {
							kt, kh = tails[pairKey(e.Src, e.Rel)], heads[pairKey(e.Dst, e.Rel)]
						}
						for _, r := range []float64{
							closedForm(e.Src, e.Rel, true, e.Dst, kt, cands),
							closedForm(e.Dst, e.Rel, false, e.Src, kh, cands),
						} {
							rr += 1 / r
							for _, k := range ks {
								if r <= float64(k) {
									hits[k]++
								}
							}
						}
					}
					wantMRR := rr / float64(2*len(test))
					for _, workers := range []int{1, 4} {
						for _, batch := range []int{1, 5, 64} {
							for _, chunk := range []int{7, 64} {
								got := Ranking(RankingConfig{
									Dec: d, Rel: rel, Table: table, Candidates: cands, Ks: ks,
									Filter: filter, BatchSize: batch, Chunk: chunk, Workers: workers,
								}, test)
								if got.MRR != wantMRR {
									t.Fatalf("%s halves=%v sampled=%v filtered=%v w=%d b=%d c=%d: MRR %v, closed form %v",
										kind, halves, cands != nil, filtered, workers, batch, chunk, got.MRR, wantMRR)
								}
								for _, k := range ks {
									if want := float64(hits[k]) / float64(2*len(test)); got.Hits[k] != want {
										t.Fatalf("%s halves=%v sampled=%v filtered=%v: Hits@%d %v, closed form %v",
											kind, halves, cands != nil, filtered, k, got.Hits[k], want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSampleCandidates pins the sampled protocol's candidate list: k
// distinct ascending IDs in range, the same for the same seed, and nil
// (every entity) when k covers them all.
func TestSampleCandidates(t *testing.T) {
	a := SampleCandidates(100, 30, 5)
	if len(a) != 30 {
		t.Fatalf("len %d, want 30", len(a))
	}
	for i, c := range a {
		if c < 0 || c >= 100 || (i > 0 && a[i-1] >= c) {
			t.Fatalf("candidates not distinct ascending in range: %v", a)
		}
	}
	if b := SampleCandidates(100, 30, 5); !slices.Equal(a, b) {
		t.Fatalf("same seed drew %v then %v", a, b)
	}
	if all := SampleCandidates(30, 30, 5); all != nil {
		t.Fatalf("k = n drew %v, want nil", all)
	}
}
