// Package autotune implements the hyperparameter rules of paper §6 for
// disk-based training: the number of physical partitions p, the buffer
// capacity c, and the number of logical partitions l are derived from the
// graph size, representation dimensionality, CPU memory and disk block
// size — eliminating the grid search evaluated in paper Fig. 8.
package autotune

import (
	"fmt"
	"math"
)

// Input describes the graph and machine.
type Input struct {
	NumNodes int
	NumEdges int
	Dim      int // base representation dimensionality
	// NodeElemBytes is the stored size of one representation element
	// (0 means 4, float32; 2 for fp16 and 1 for int8 quantized feature
	// tables, which shrink NO and with it the partition-swap IO the §6
	// rules balance against compute).
	NodeElemBytes int
	BytesPerEdge  int   // 12 for (src, rel, dst) int32 triples
	CPUBytes      int64 // usable CPU memory for the partition buffer
	BlockBytes    int64 // disk block size D (e.g., 512 KiB for EBS-like volumes)
	FudgeBytes    int64 // working-memory reserve F
}

// Result is the tuned configuration.
type Result struct {
	P int // physical partitions
	C int // buffer capacity (physical partitions)
	L int // logical partitions
	// Alpha4 is min(NO/D, sqrt(EO/D)), the partition count at which the
	// smallest disk read shrinks to one block (paper §6).
	Alpha4 float64
	// NodeBytes and EdgeBytes are the total storage overheads NO and EO.
	NodeBytes, EdgeBytes int64
}

// Tune applies the §6 rules:
//
//	NO = |V|·d·elemBytes, EO = |E|·bytesPerEdge
//	α4 = min(NO/D, √(EO/D)); p = α4
//	maximize c s.t. c·PO + 2c²·EBO + F < CPU
//	l = 2p/c  (so the buffer holds c_l = 2 logical partitions)
//
// p, c and l are rounded to satisfy COMET's divisibility constraints
// (l | p, (p/l) | c) while staying as close to the rule values as possible.
func Tune(in Input) (Result, error) {
	if in.NumNodes <= 0 || in.NumEdges <= 0 || in.Dim <= 0 {
		return Result{}, fmt.Errorf("autotune: graph dimensions must be positive")
	}
	if in.BytesPerEdge == 0 {
		in.BytesPerEdge = 12
	}
	if in.BlockBytes == 0 {
		in.BlockBytes = 512 << 10
	}
	if in.NodeElemBytes == 0 {
		in.NodeElemBytes = 4
	}
	no := int64(in.NumNodes) * int64(in.Dim) * int64(in.NodeElemBytes)
	eo := int64(in.NumEdges) * int64(in.BytesPerEdge)
	alpha4 := math.Min(float64(no)/float64(in.BlockBytes), math.Sqrt(float64(eo)/float64(in.BlockBytes)))
	p := int(alpha4)
	if p < 4 {
		p = 4
	}

	// Search near the rule point for a feasible (p, c, l) triple: maximize
	// the buffer capacity, then keep l closest to the 2p/c rule (prime p
	// values admit only degenerate l, so neighbors of the rule's p are
	// considered too).
	best := Result{}
	bestLDist := math.Inf(1)
	for pc := p; pc >= 4 && pc >= p-8; pc-- {
		c := maxCapacity(pc, no, eo, in.CPUBytes, in.FudgeBytes)
		if c < 2 {
			continue
		}
		if c > pc {
			c = pc
		}
		l := feasibleL(pc, c)
		if l == 0 {
			continue
		}
		lDist := math.Abs(float64(l) - float64(2*pc)/float64(c))
		if best.P == 0 || c > best.C || (c == best.C && lDist < bestLDist) {
			best = Result{P: pc, C: c, L: l, Alpha4: alpha4, NodeBytes: no, EdgeBytes: eo}
			bestLDist = lDist
		}
	}
	if best.P == 0 {
		return Result{}, fmt.Errorf("autotune: no feasible configuration (CPU memory %d too small?)", in.CPUBytes)
	}
	return best, nil
}

// maxCapacity returns the largest c with c·PO + 2c²·EBO + F < CPU.
func maxCapacity(p int, no, eo, cpu, fudge int64) int {
	po := no / int64(p)
	ebo := eo / int64(p*p)
	c := 0
	for cand := 1; cand <= p; cand++ {
		used := int64(cand)*po + 2*int64(cand)*int64(cand)*ebo + fudge
		if used < cpu {
			c = cand
		} else {
			break
		}
	}
	return c
}

// feasibleL returns the number of logical partitions closest to 2p/c that
// satisfies COMET's constraints: l | p, (p/l) | c, and c/(p/l) ≥ 2.
// It returns 0 if none exists.
func feasibleL(p, c int) int {
	want := float64(2*p) / float64(c)
	best, bestDist := 0, math.Inf(1)
	for l := 1; l <= p; l++ {
		if p%l != 0 {
			continue
		}
		group := p / l
		if c%group != 0 || c/group < 2 {
			continue
		}
		if d := math.Abs(float64(l) - want); d < bestDist {
			best, bestDist = l, d
		}
	}
	return best
}
