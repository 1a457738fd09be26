package eval

import (
	"math/rand"
	"slices"

	"repro/internal/decoder"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// This file implements the link-prediction ranking protocol (paper §7:
// filtered MRR and Hits@k on FB15k-237/Freebase86m), the one scorer
// behind every reported link-prediction rank. Every held-out edge
// (s, r, d) is ranked twice — d against the candidate tails of (s, r, ?),
// s against the candidate heads of (?, r, d) — over every entity or an
// ascending candidate subset, optionally with known true triples removed
// ("filtered"). The evaluator streams: queries are folded into vectors
// once per batch and candidates are scored in ascending chunks through
// the fused GatherMatMulTB kernel, so the full B×N score matrix never
// materializes. Because each fused output element is a single
// zero-seeded ascending dot product (plus an elementwise norm completion
// for TransE), ranks are bitwise identical at every worker count, chunk
// size and batch size, and match the brute-force reference exactly.
//
// Rank rule (the realistic rank, Ali et al., arXiv:2006.13365): over the
// candidates c ≠ target, c ∉ known, a query counts greater = #{s_c > s_t}
// and equal = #{s_c == s_t}; its rank is 1 + greater + equal/2, the mean
// of the optimistic and pessimistic ranks. MRR and Hits@k both read it,
// so a tie never favours or penalises the target by its ID.

// Filter indexes the known true triples to exclude from ranking: the
// training edges (through a relation-carrying Adjacency) plus any
// held-out splits (validation and test edges, per the standard filtered
// protocol).
type Filter struct {
	adj   *graph.Adjacency
	tails map[int64][]int32 // (src, rel) -> extra known tails
	heads map[int64][]int32 // (dst, rel) -> extra known heads
}

func pairKey(a, rel int32) int64 { return int64(a)<<32 | int64(uint32(rel)) }

// NewFilter builds a filter over the training adjacency and any number of
// additional edge sets (validation/test splits).
func NewFilter(adj *graph.Adjacency, extra ...[]graph.Edge) *Filter {
	f := &Filter{adj: adj, tails: map[int64][]int32{}, heads: map[int64][]int32{}}
	for _, edges := range extra {
		for _, e := range edges {
			tk := pairKey(e.Src, e.Rel)
			f.tails[tk] = append(f.tails[tk], e.Dst)
			hk := pairKey(e.Dst, e.Rel)
			f.heads[hk] = append(f.heads[hk], e.Src)
		}
	}
	return f
}

// KnownTails appends to buf the known tails of (src, rel) — sorted
// ascending, duplicates kept (harmless for membership scans) — and
// returns the result.
func (f *Filter) KnownTails(buf []int32, src, rel int32) []int32 {
	if f == nil {
		return buf[:0]
	}
	buf = buf[:0]
	if f.adj != nil {
		nbrs, rels := f.adj.OutNeighbors(src), f.adj.OutRels(src)
		for i, d := range nbrs {
			if rels[i] == rel {
				buf = append(buf, d)
			}
		}
	}
	buf = append(buf, f.tails[pairKey(src, rel)]...)
	slices.Sort(buf)
	return buf
}

// KnownHeads appends to buf the known heads of (rel, dst), sorted
// ascending.
func (f *Filter) KnownHeads(buf []int32, dst, rel int32) []int32 {
	if f == nil {
		return buf[:0]
	}
	buf = buf[:0]
	if f.adj != nil {
		nbrs, rels := f.adj.InNeighbors(dst), f.adj.InRels(dst)
		for i, s := range nbrs {
			if rels[i] == rel {
				buf = append(buf, s)
			}
		}
	}
	buf = append(buf, f.heads[pairKey(dst, rel)]...)
	slices.Sort(buf)
	return buf
}

// SampleCandidates draws k distinct entity IDs from [0, n) with a seeded
// RNG and returns them in ascending order: a candidate list for
// RankingConfig.Candidates. With k >= n it returns nil, every entity.
func SampleCandidates(n, k int, seed int64) []int32 {
	if k >= n {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		if c := int32(rng.Intn(n)); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// RankingConfig configures a streamed ranking evaluation.
type RankingConfig struct {
	// Dec is the decoder; Rel its relation table value ([numRels x dim]).
	Dec decoder.Decoder
	Rel *tensor.Tensor
	// Table holds the encoded entity representations ([numNodes x dim]):
	// the embedding table for decoder-only models, or the precomputed
	// encoder outputs for GNN models.
	Table *tensor.Tensor
	// Candidates lists the entities every query ranks against, in
	// ascending ID order; nil ranks against every entity.
	Candidates []int32
	// Ks lists the Hits@k cutoffs (default 1, 10).
	Ks []int
	// Filter removes known true triples from the candidate set; nil ranks
	// raw (unfiltered).
	Filter *Filter
	// BatchSize is the number of held-out edges folded per fused launch
	// (default 64; each edge contributes a tail and a head query).
	BatchSize int
	// Chunk is the candidate-chunk width (default 2048): the score matrix
	// materializes at most [2·BatchSize x Chunk] at a time.
	Chunk int
	// Workers is the kernel fan-out (results are identical at any value).
	Workers int
}

// RankingResult aggregates a ranking evaluation.
type RankingResult struct {
	MRR  float64
	Hits map[int]float64
	// Ranked counts ranked queries: 2 per evaluated edge (tail + head).
	Ranked int
}

// Ranking runs the both-sides ranking protocol over the held-out edges,
// filtered or raw, against every entity or cfg.Candidates. Results are
// bitwise independent of Workers, BatchSize and Chunk.
func Ranking(cfg RankingConfig, edges []graph.Edge) RankingResult {
	ks := cfg.Ks
	if len(ks) == 0 {
		ks = []int{1, 10}
	}
	res := RankingResult{Hits: make(map[int]float64, len(ks))}
	if len(edges) == 0 || cfg.Table.Rows == 0 {
		return res
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = 2048
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	c := tensor.NewCompute(workers, nil)

	dim := cfg.Dec.Dim()
	numCands := cfg.Table.Rows
	if cfg.Candidates != nil {
		numCands = len(cfg.Candidates)
	}
	var tn []float32
	if cfg.Dec.Norms() {
		tn = decoder.TableNorms(cfg.Table)
	}

	idx := make([]int32, chunk)
	known := make([][]int32, 2*batch)

	// Per-query ranks, indexed canonically (edge j's tail rank at 2j,
	// head rank at 2j+1) and aggregated once at the end, so MRR/Hits are
	// bitwise independent of batch grouping as well as worker count and
	// chunk size.
	allRanks := make([]float64, 2*len(edges))

	for base := 0; base < len(edges); base += batch {
		b := min(batch, len(edges)-base)
		// Fold each edge into its tail query (row i) and head query
		// (row b+i), record targets and per-query known-candidate lists.
		q := tensor.New(2*b, dim)
		targets := make([]int32, 2*b)
		greater, equal := make([]int64, 2*b), make([]int64, 2*b)
		var qn []float32
		if cfg.Dec.Norms() {
			qn = make([]float32, 2*b)
		}
		for i := 0; i < b; i++ {
			e := edges[base+i]
			relRow := cfg.Rel.Row(int(e.Rel))
			cfg.Dec.TailQueryInto(q.Row(i), cfg.Table.Row(int(e.Src)), relRow)
			cfg.Dec.HeadQueryInto(q.Row(b+i), cfg.Table.Row(int(e.Dst)), relRow)
			targets[i], targets[b+i] = e.Dst, e.Src
			known[i] = cfg.Filter.KnownTails(known[i], e.Src, e.Rel)
			known[b+i] = cfg.Filter.KnownHeads(known[b+i], e.Dst, e.Rel)
			if cfg.Dec.Norms() {
				qn[i] = decoder.SqNorm(q.Row(i))
				qn[b+i] = decoder.SqNorm(q.Row(b + i))
			}
		}

		// Target scores, computed by the same scalar dot the fused kernel
		// uses per element.
		ts := make([]float32, 2*b)
		for i := 0; i < 2*b; i++ {
			t := int(targets[i])
			var qni, cni float32
			if cfg.Dec.Norms() {
				qni, cni = qn[i], tn[t]
			}
			ts[i] = decoder.ScoreOne(cfg.Dec, q.Row(i), cfg.Table.Row(t), qni, cni)
		}

		// Stream candidate chunks in ascending ID order; each query's
		// sorted known list merges against the ascending scan.
		knownPos := make([]int, 2*b)
		for lo := 0; lo < numCands; lo += chunk {
			hi := min(lo+chunk, numCands)
			var ids []int32
			if cfg.Candidates != nil {
				ids = cfg.Candidates[lo:hi]
			} else {
				ids = idx[:hi-lo]
				for j := range ids {
					ids[j] = int32(lo + j)
				}
			}
			s := c.GatherMatMulTB(q, cfg.Table, ids)
			decoder.FinishScores(cfg.Dec, s, qn, tn, ids)
			for i := 0; i < 2*b; i++ {
				target, kn := targets[i], known[i]
				kp := knownPos[i]
				row, t := s.Row(i)[:len(ids)], ts[i]
				var g, eq int64
				for j, cand := range ids {
					sc := row[j]
					for kp < len(kn) && kn[kp] < cand {
						kp++
					}
					if cand == target || (kp < len(kn) && kn[kp] == cand) {
						continue // the target itself, or a known true triple
					}
					if sc > t {
						g++
					} else if sc == t {
						eq++
					}
				}
				knownPos[i] = kp
				greater[i] += g
				equal[i] += eq
			}
		}

		for i := 0; i < b; i++ {
			allRanks[2*(base+i)] = realisticRank(greater[i], equal[i])
			allRanks[2*(base+i)+1] = realisticRank(greater[b+i], equal[b+i])
		}
		res.Ranked += 2 * b
	}

	var sumRR float64
	hitCounts := make(map[int]int64, len(ks))
	for _, r := range allRanks {
		sumRR += 1 / r
		for _, k := range ks {
			if r <= float64(k) {
				hitCounts[k]++
			}
		}
	}
	res.MRR = sumRR / float64(res.Ranked)
	for _, k := range ks {
		res.Hits[k] = float64(hitCounts[k]) / float64(res.Ranked)
	}
	return res
}

// realisticRank is 1 + greater + equal/2: the mean of the optimistic and
// pessimistic ranks, exact in float64.
func realisticRank(greater, equal int64) float64 {
	return 1 + float64(greater) + float64(equal)/2
}
