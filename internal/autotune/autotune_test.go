package autotune

import (
	"math"
	"testing"
)

func TestTuneProducesFeasibleComet(t *testing.T) {
	res, err := Tune(Input{
		NumNodes: 1_000_000, NumEdges: 10_000_000, Dim: 64,
		CPUBytes: 64 << 20, BlockBytes: 64 << 10, FudgeBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 4 || res.C < 2 || res.L < 1 {
		t.Fatalf("implausible tuning: %+v", res)
	}
	// COMET structural constraints.
	if res.P%res.L != 0 {
		t.Fatalf("l=%d does not divide p=%d", res.L, res.P)
	}
	group := res.P / res.L
	if res.C%group != 0 || res.C/group < 2 {
		t.Fatalf("buffer %d incompatible with group size %d", res.C, group)
	}
	// Memory constraint: c·PO + 2c²·EBO + F < CPU.
	po := res.NodeBytes / int64(res.P)
	ebo := res.EdgeBytes / int64(res.P*res.P)
	used := int64(res.C)*po + 2*int64(res.C*res.C)*ebo + (1 << 20)
	if used >= 64<<20 {
		t.Fatalf("tuned configuration exceeds memory: %d", used)
	}
}

func TestTuneLRule(t *testing.T) {
	// When feasible exactly, l should be near 2p/c.
	res, err := Tune(Input{
		NumNodes: 500_000, NumEdges: 4_000_000, Dim: 32,
		CPUBytes: 32 << 20, BlockBytes: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2*res.P) / float64(res.C)
	got := float64(res.L)
	if got < want/2 || got > want*2 {
		t.Fatalf("l=%d too far from rule value %.1f (p=%d c=%d)", res.L, want, res.P, res.C)
	}
}

func TestTuneInsufficientMemory(t *testing.T) {
	_, err := Tune(Input{
		NumNodes: 1_000_000, NumEdges: 10_000_000, Dim: 128,
		CPUBytes: 1 << 10, BlockBytes: 4 << 10,
	})
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestTuneRejectsBadInput(t *testing.T) {
	if _, err := Tune(Input{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestAlpha4Definition(t *testing.T) {
	in := Input{
		NumNodes: 1 << 20, NumEdges: 1 << 23, Dim: 64,
		CPUBytes: 1 << 30, BlockBytes: 1 << 19,
	}
	res, err := Tune(in)
	if err != nil {
		t.Fatal(err)
	}
	no := float64(int64(in.NumNodes) * int64(in.Dim) * 4)
	eo := float64(int64(in.NumEdges) * 12)
	want := math.Min(no/float64(in.BlockBytes), math.Sqrt(eo/float64(in.BlockBytes)))
	if math.Abs(res.Alpha4-want) > 1e-9 {
		t.Fatalf("alpha4 = %v, want %v", res.Alpha4, want)
	}
}
