package marius

import (
	"testing"

	"repro/internal/policy"
)

// TestLayout holds the one (p, c, l) resolution every session takes, over
// counts alone: no graph is built.
func TestLayout(t *testing.T) {
	opts := func(storage StorageMode, p, c, l int) Options {
		o := defaultOptions()
		o.Storage, o.Partitions, o.BufferCapacity, o.LogicalPartitions = storage, p, c, l
		return o
	}
	// The tuner sizes a 50 000-node, 1 150 000-edge graph at dim 32 as
	// P = C = L = 5.
	const nodes, edges, dim = 50_000, 1_150_000, 32
	cases := []struct {
		name    string
		o       Options
		task    string
		p, c, l int
	}{
		{"in-memory default", opts(InMemory, 0, 0, 0), TaskLP, 4, 4, 4},
		{"in-memory p", opts(InMemory, 6, 0, 0), TaskNC, 6, 6, 6},
		{"tuned", opts(OnDisk, 0, 0, 0), TaskLP, 5, 5, 5},
		// FromDataset sets the manifest's p: c is clamped to it and a
		// tuned l that does not divide it falls back to p.
		{"dataset p is fixed", opts(OnDisk, 16, 0, 0), TaskLP, 16, 5, 16},
		{"dataset p is fixed nc", opts(OnDisk, 16, 0, 0), TaskNC, 16, 5, 16},
		{"explicit kept", opts(OnDisk, 8, 4, 2), TaskLP, 8, 4, 2},
		{"nc needs no l", opts(OnDisk, 8, 3, 0), TaskNC, 8, 3, 8},
		// marius.New(LinkPrediction(), g, WithDisk(dir, Partitions(4),
		// LogicalPartitions(2))) once asked storage for 5 slots of 4.
		{"tuned c within p", opts(OnDisk, 4, 0, 2), TaskLP, 4, 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, c, l, err := tc.o.layout(tc.task, nodes, edges, dim, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p != tc.p || c != tc.c || l != tc.l {
				t.Fatalf("layout = (%d, %d, %d), want (%d, %d, %d)", p, c, l, tc.p, tc.c, tc.l)
			}
		})
	}
}

// TestLayoutDiskTriplesBuildComet sweeps graph sizes, memory budgets and
// explicit p and c: every disk link-prediction layout the tuner completes
// is one COMET accepts.
func TestLayoutDiskTriplesBuildComet(t *testing.T) {
	checked := 0
	for _, nodes := range []int{1_000, 50_000, 1_000_000} {
		for _, edges := range []int{10_000, 1_150_000, 20_000_000} {
			for _, dim := range []int{16, 128} {
				for _, cpu := range []int64{64 << 20, 1 << 30} {
					for _, p := range []int{0, 4, 6, 9, 12, 16} {
						for _, c := range []int{0, 2, 3} {
							if p > 0 && c > p {
								continue
							}
							o := defaultOptions()
							o.Storage, o.Partitions, o.BufferCapacity, o.CPUBytes = OnDisk, p, c, cpu
							gp, gc, gl, err := o.layout(TaskLP, nodes, edges, dim, 0)
							if err != nil {
								continue // the tuner found no configuration in budget
							}
							if p > 0 && gp != p {
								t.Fatalf("p = %d, want the explicit %d", gp, p)
							}
							if gc < 2 || gc > gp {
								t.Fatalf("%d nodes %d edges dim %d cpu %d p %d c %d: c = %d outside [2, %d]",
									nodes, edges, dim, cpu, p, c, gc, gp)
							}
							if err := (policy.Comet{P: gp, L: gl, C: gc}).Validate(); err != nil {
								t.Fatalf("%d nodes %d edges dim %d cpu %d p %d c %d: (%d, %d, %d): %v",
									nodes, edges, dim, cpu, p, c, gp, gc, gl, err)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d layouts resolved; the sweep tests little", checked)
	}
}
