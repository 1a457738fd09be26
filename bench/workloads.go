package main

import (
	"repro/internal/gen"
	"repro/marius"
)

// workload is one set of inputs and settings the benchmark runs. Every
// workload goes through the same five phases (prep, train, eval,
// serve-load, serve); they differ in which layer does the work. The sizes
// are constants: they were chosen once, by measurement on the 2-core
// reference machine, so that a run fits the benchmark driver's cap of
// about 30 s and the shares README.md states hold.
type workload struct {
	Name string
	// Why is the one line that says what the workload is for; the same
	// text is in BENCHMARK.json.
	Why  string
	Task string // marius.TaskNC or marius.TaskLP

	// The generated graph: KG for link prediction, SBM for node
	// classification. The seed is filled in per run.
	KG  gen.KGConfig
	SBM gen.SBMConfig

	// Prep.
	Partitions   int
	Quantize     string // feature storage encoding ("" = float32)
	PrepMemLimit int64  // external-sort cap; small values force spill runs
	PrepReps     int    // prep is repeated and its median reported

	// Model.
	Fanouts   []int
	Dim       int
	BatchSize int
	Negatives int
	Decoder   marius.DecoderKind

	// Storage and execution. Disk false keeps everything in memory.
	Disk         bool
	Capacity     int
	Logical      int
	Depth        int
	ThrottleMBps float64 // the simulated disk; 0 = unthrottled

	// Epochs is the number of measured epochs; one warm epoch runs first.
	Epochs int
	// EvalCalls is the number of steady Evaluate calls after the first.
	EvalCalls int
	// Floor is the least validation quality a correct run reaches: about
	// half the lowest value seen over forty seeds (filtered MRR after two
	// or three epochs spreads 0.09-0.12 on lp-comet-disk and 0.012-0.056
	// on lp-disk-rw, where a random ranking scores 0.0003).
	Floor float64

	// Serving.
	ServeInMemory bool
	QuantizeTable string
	// RefRate is the reference rate in requests per second, a quarter of
	// what the server sustains on the reference machine: the ramp runs at
	// 2x, half the sustained rate, where a garbage-collection stall drains
	// within the limit, and at 8x, twice the sustained rate, so the highest
	// passing step does not flip from run to run.
	RefRate float64
}

var workloads = []workload{
	{
		Name: "lp-comet-disk",
		Why:  "paper's headline config: kernels (negative scoring, backward, sparse write-back) dominate, IO is page-cache cheap, sampling <5%; a kernel change shows here, an IO change must not",
		Task: marius.TaskLP,
		KG: func() gen.KGConfig {
			c := gen.FB15k237Scale(1.0, 0)
			c.ValidFrac, c.TestFrac = 0.005, 0.005
			return c
		}(),
		Partitions: 8, PrepMemLimit: 3 << 20, PrepReps: 15,
		Fanouts: []int{20}, Dim: 32, BatchSize: 1024, Negatives: 100, Decoder: marius.DistMult,
		Disk: true, Capacity: 4, Logical: 4, Depth: 2,
		Epochs: 3, EvalCalls: 5, Floor: 0.05,
		RefRate: 120,
	},
	{
		Name: "nc-mem-sample",
		Why:  "in-memory 3-layer GraphSage over fp16 features: sampler, adjacency and gather do their largest share while storage, policy and pipeline idle; control for every IO/pipeline gain",
		Task: marius.TaskNC,
		SBM: func() gen.SBMConfig {
			c := gen.DefaultSBM(100_000, 0)
			c.FeatureDim = 64
			c.ValidFrac = 0.01 // a 3-hop evaluation of 1000 nodes takes 0.7 s
			return c
		}(),
		Partitions: 4, Quantize: "fp16", PrepReps: 2,
		Fanouts: []int{15, 10, 5}, Dim: 16, BatchSize: 1024,
		Depth: 0,
		// The trainer's arenas keep growing for three or four epochs, and
		// an epoch that grows them is a third slower: five measured epochs
		// put the median on the steady ones.
		Epochs: 5, EvalCalls: 5, Floor: 0.85,
		ServeInMemory: true,
		RefRate:       35,
	},
	{
		Name: "nc-disk-io",
		Why:  "256-d features paged from a throttled disk, every partition rotated through the buffer: read-only IO is half the serial epoch, for prefetch to hide; storage, pipeline and policy work, kernels little",
		Task: marius.TaskNC,
		SBM: func() gen.SBMConfig {
			c := gen.DefaultSBM(100_000, 0)
			c.FeatureDim = 256
			// Training nodes fill four of the sixteen partitions, as many
			// as the buffer holds, so NodeCache rotates every partition
			// through memory each epoch (13 visits) instead of pinning one.
			c.TrainFrac = 0.2
			c.ValidFrac = 0.01
			return c
		}(),
		Partitions: 16, PrepReps: 2,
		Fanouts: []int{10, 10}, Dim: 32, BatchSize: 1024,
		Disk: true, Capacity: 4, Depth: 2, ThrottleMBps: 40,
		Epochs: 2, EvalCalls: 1, Floor: 0.85,
		RefRate: 250,
	},
	{
		Name: "lp-disk-rw",
		Why:  "learnable ComplEx table on a throttled disk: every swap writes partitions back, so a read-path gain that costs the evict path shows against nc-disk-io; covers ComplEx and int8 fused scoring",
		Task: marius.TaskLP,
		KG: gen.KGConfig{
			NumEntities: 40_000, NumRelations: 16, NumEdges: 200_000,
			ZipfS: 1.2, ValidFrac: 0.002, TestFrac: 0.002,
		},
		Partitions: 16, PrepReps: 15,
		Fanouts: []int{20}, Dim: 64, BatchSize: 2048, Negatives: 32, Decoder: marius.ComplEx,
		Disk: true, Capacity: 4, Logical: 8, Depth: 2, ThrottleMBps: 32,
		Epochs: 2, EvalCalls: 3, Floor: 0.005,
		QuantizeTable: "int8",
		RefRate:       40,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload to smoke-test size: the same phases and code
// paths over a graph some 25 times smaller, one measured epoch, a disk
// too fast to wait for, and serving steps of a few requests. Tiny numbers
// mean nothing; the mode exists so `go test` can run every phase of every
// workload.
func (w workload) tiny() workload {
	if w.Task == marius.TaskLP {
		w.KG.NumEntities /= 20
		w.KG.NumEdges /= 25
		w.KG.NumRelations = min(w.KG.NumRelations, 16)
		w.KG.ValidFrac, w.KG.TestFrac = 0.02, 0.02
		w.PrepMemLimit /= 25
	} else {
		w.SBM.NumNodes /= 25
		w.SBM.FeatureDim = min(w.SBM.FeatureDim, 32)
		w.SBM.ValidFrac = 0.05
	}
	w.BatchSize = 256
	w.Epochs = 1
	w.EvalCalls = 1
	w.PrepReps = 1
	w.Floor = 0
	if w.ThrottleMBps > 0 {
		w.ThrottleMBps = 4000
	}
	w.RefRate = 400
	return w
}
