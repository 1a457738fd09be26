// Command benchkernels measures the tensor hot-path kernels against the
// retained naive references and emits BENCH_kernels.json, the repo's
// kernel performance baseline. Every future PR can diff its numbers
// against the checked-in file.
//
//	go run ./cmd/benchkernels                  # full shapes
//	go run ./cmd/benchkernels -short -check    # CI: small shapes, enforce floors
//
// -check exits non-zero when the 4-worker blocked matmul fails to reach
// 2x naive throughput, a training-shape kernel through axpyN fails to
// reach 1.5x the per-term axpy loop (on an AVX2 machine), or the arena
// training step allocates, so kernel regressions fail loudly rather than
// drifting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// Result is one measured kernel configuration.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	MFlops      float64 `json:"mflops,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the schema of BENCH_kernels.json.
type Report struct {
	Schema     int            `json:"schema"`
	Go         string         `json:"go"`
	GoMaxProcs int            `json:"gomaxprocs"`
	AVX2       bool           `json:"avx2"` // the kernels ran their assembly, not the Go loops
	Short      bool           `json:"short"`
	Shapes     map[string]any `json:"shapes"`
	Results    []Result       `json:"results"`
	Summary    map[string]any `json:"summary"`
}

func bench(name string, flops float64, fn func(b *testing.B)) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	res := Result{Name: name, NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp()}
	if flops > 0 && r.NsPerOp() > 0 {
		res.MFlops = flops / float64(r.NsPerOp()) * 1e3
	}
	fmt.Printf("%-32s %12d ns/op %10.0f MFLOP/s %6d allocs/op\n", name, res.NsPerOp, res.MFlops, res.AllocsPerOp)
	return res
}

func randn(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.RandNormal(rng, 1)
	return t
}

// benchBest re-measures a benchmark `rounds` times and keeps the fastest
// ns/op (and the worst allocs/op). The CI check compares ratios of these
// numbers; best-of-N strips scheduler noise on shared runners so the
// ratio floors gate the kernels, not the machine.
func benchBest(name string, flops float64, rounds int, fn func(b *testing.B)) Result {
	best := bench(name, flops, fn)
	for r := 1; r < rounds; r++ {
		next := bench(name, flops, fn)
		if next.NsPerOp < best.NsPerOp {
			best.NsPerOp, best.MFlops = next.NsPerOp, next.MFlops
		}
		if next.AllocsPerOp > best.AllocsPerOp {
			best.AllocsPerOp = next.AllocsPerOp
		}
	}
	return best
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output JSON path")
	short := flag.Bool("short", false, "small shapes for CI")
	check := flag.Bool("check", false, "enforce acceptance floors (>=2x matmul, 0 allocs)")
	flag.Parse()

	// Shapes: the matmul triple models a GNN layer (batch x dim @ dim x
	// dim); the gather/segment shapes model a fanout-8 neighborhood; the
	// negative-scoring shapes model a 500-negative DistMult batch.
	n, k, m := 512, 128, 256
	gRows, gDim, gFan, gSegs := 2000, 64, 8, 1500
	sB, sDim, sNeg, sTable := 256, 64, 500, 4000
	if *short {
		// The matmul keeps its full shape: it feeds the parallel-speedup
		// floor, and a smaller one is ~100 µs of work for today's kernel,
		// less than it costs a 2-vCPU VM to wake a parked core and join.
		// A row runs for a second whatever its shape.
		gRows, gSegs = 800, 600
		sB, sNeg, sTable = 128, 250, 1500
	}

	rng := rand.New(rand.NewSource(42))
	a := randn(rng, n, k)
	b := randn(rng, k, m)
	matmulFlops := 2 * float64(n) * float64(k) * float64(m)

	h0 := randn(rng, gRows, gDim)
	idx := make([]int32, gSegs*gFan)
	for i := range idx {
		idx[i] = int32(rng.Intn(gRows))
	}
	offsets := make([]int32, gSegs)
	for s := 1; s < gSegs; s++ {
		offsets[s] = offsets[s-1] + int32(gFan)
	}

	qry := randn(rng, sB, sDim)
	table := randn(rng, sTable, sDim)
	negIdx := make([]int32, sNeg)
	for i := range negIdx {
		negIdx[i] = int32(rng.Intn(sTable))
	}
	negFlops := 2 * float64(sB) * float64(sDim) * float64(sNeg)

	serial := tensor.NewCompute(1, nil)
	w4 := tensor.NewCompute(4, nil)

	var results []Result
	add := func(r Result) { results = append(results, r) }

	// The naive kernel is the seed-era baseline: textbook triple loop,
	// single goroutine, strided access. The three matmul configurations
	// feed the -check ratio floors, so they run best-of-3.
	naive := benchBest("matmul_naive", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.RefMatMul(a, b)
		}
	})
	add(naive)
	mm1 := benchBest("matmul_blocked_w1", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			serial.MatMul(a, b)
		}
	})
	add(mm1)
	mm4 := benchBest("matmul_blocked_w4", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.MatMul(a, b)
		}
	})
	add(mm4)

	gsUnfused := bench("gather_segment_unfused", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.SegmentSum(w4.Gather(h0, idx), offsets)
		}
	})
	add(gsUnfused)
	gsFused := bench("gather_segment_fused", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.GatherSegmentSum(h0, idx, offsets)
		}
	})
	add(gsFused)

	negUnfused := bench("negscore_unfused", negFlops, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.MatMulTransposeB(qry, w4.Gather(table, negIdx))
		}
	})
	add(negUnfused)
	negFused := bench("negscore_fused_gathermatmul", negFlops, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.GatherMatMulTB(qry, table, negIdx)
		}
	})
	add(negFused)

	// Quantized scoring: the serving/storage dequant path. Unfused
	// materializes the full float32 table from the compressed form and
	// then runs the fused float32 kernel — what a reader without the
	// dequantizing kernels would have to do per snapshot or per partition
	// load; fused dequantizes only the rows each dot product touches.
	// These feed a -check ratio floor, so best-of-3.
	var deqSpeedup = map[string]float64{}
	for _, kind := range []tensor.QuantKind{tensor.QuantF16, tensor.QuantI8} {
		qt := tensor.Quantize(table, kind)
		unfused := benchBest("negscore_dequant_unfused_"+kind.String(), negFlops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				w4.GatherMatMulTB(qry, qt.Dequant(), negIdx)
			}
		})
		add(unfused)
		fused := benchBest("negscore_dequant_fused_"+kind.String(), negFlops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				w4.GatherMatMulTBDequant(qry, qt, negIdx)
			}
		})
		add(fused)
		deqSpeedup[kind.String()] = float64(unfused.NsPerOp) / float64(fused.NsPerOp)
	}

	// Training shapes. The matmul above is wide enough to hide what a
	// term costs; the kernels of a training step are not: the LP workload
	// runs dim 32 with 100 negatives at batch 1024, the NC workload hidden
	// 16. Each kernel is timed as it runs (one axpyN per output row and
	// k-block, the sum held in registers) and as it ran before axpyN, the
	// same loop issuing one axpy call per term. Both feed a -check floor,
	// so best-of-3, on one worker.
	tB, tNeg, tDim, tHid := 1024, 100, 32, 16
	if *short {
		tB = 256
	}
	const kBlock = 64            // the kernels' k-block
	tG := randn(rng, tB, tNeg)   // score gradients [batch x negatives]
	tE := randn(rng, tB, tDim)   // encodings [batch x dim]
	tW := randn(rng, tNeg, tHid) // a hidden-16 layer's weights
	tTable := randn(rng, sTable, tDim)
	tIdx := negIdx[:tNeg]
	trainSpeedup := map[string]float64{}
	trainShape := func(name string, rows, cols int, flops float64, viaAxpyN func(out *tensor.Tensor), perTerm func(out *tensor.Tensor, i int)) {
		out := tensor.New(rows, cols)
		fast := benchBest(name+"_axpyn", flops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				viaAxpyN(out)
			}
		})
		add(fast)
		slow := benchBest(name+"_perterm", flops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				out.Zero()
				for r := 0; r < rows; r++ {
					perTerm(out, r)
				}
			}
		})
		add(slow)
		trainSpeedup[name] = float64(slow.NsPerOp) / float64(fast.NsPerOp)
	}
	// dW = Gᵀ @ E: [negatives x dim] from batch-many terms per row.
	trainShape("train_matmulta", tNeg, tDim, 2*float64(tB)*float64(tNeg)*float64(tDim),
		func(out *tensor.Tensor) { serial.MatMulTransposeAInto(out, tG, tE, false) },
		func(out *tensor.Tensor, i int) {
			for p0 := 0; p0 < tB; p0 += kBlock {
				tensor.BenchAxpyTerms(out.Row(i), tE.Data[p0*tDim:], tDim, nil, tG.Data[p0*tNeg+i:], tNeg, min(kBlock, tB-p0), true)
			}
		})
	// dQ = G @ table[idx]: the backward of fused negative scoring.
	trainShape("train_matmulgather", tB, tDim, 2*float64(tB)*float64(tNeg)*float64(tDim),
		func(out *tensor.Tensor) { out.Zero(); serial.BenchMatMulGather(out, tG, tTable, tIdx) },
		func(out *tensor.Tensor, i int) {
			tensor.BenchAxpyTerms(out.Row(i), tTable.Data, tDim, tIdx, tG.Row(i), 1, tNeg, true)
		})
	// H = G @ W with 16 output columns: one 16-wide step per term.
	trainShape("train_matmul_m16", tB, tHid, 2*float64(tB)*float64(tNeg)*float64(tHid),
		func(out *tensor.Tensor) { serial.MatMulInto(out, tG, tW, false) },
		func(out *tensor.Tensor, i int) {
			for p0 := 0; p0 < tNeg; p0 += kBlock {
				tensor.BenchAxpyTerms(out.Row(i), tW.Data[p0*tHid:], tHid, nil, tG.Row(i)[p0:], 1, min(kBlock, tNeg-p0), true)
			}
		})

	// Arena steady state: tensor.BenchTrainStep is the same sequence the
	// zero-allocation contract test asserts on — the two gates measure one
	// body by construction.
	arena := tensor.NewArena()
	ca := tensor.NewCompute(1, arena)
	w1t := randn(rng, gDim, gDim)
	w2t := randn(rng, gDim, gDim)
	dh0 := tensor.New(gRows, gDim)
	tensor.BenchTrainStep(ca, h0, w1t, w2t, dh0, idx, offsets) // warm up slabs
	arena.Reset()
	arenaStep := bench("arena_train_step_w1", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.BenchTrainStep(ca, h0, w1t, w2t, dh0, idx, offsets)
			arena.Reset()
		}
	})
	add(arenaStep)
	heapStep := bench("heap_train_step_w1", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.BenchTrainStep(serial, h0, w1t, w2t, dh0, idx, offsets)
		}
	})
	add(heapStep)

	speedupNaive := float64(naive.NsPerOp) / float64(mm4.NsPerOp)
	speedupSerial := float64(mm1.NsPerOp) / float64(mm4.NsPerOp)
	rep := Report{
		Schema:     1,
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		AVX2:       tensor.HasAVX2(),
		Short:      *short,
		Shapes: map[string]any{
			"matmul":            []int{n, k, m},
			"gather_segment":    map[string]int{"rows": gRows, "dim": gDim, "fanout": gFan, "segments": gSegs},
			"negative_scoring":  map[string]int{"batch": sB, "dim": sDim, "negatives": sNeg, "table": sTable},
			"arena_train_layer": gDim,
			"training":          map[string]int{"batch": tB, "negatives": tNeg, "dim": tDim, "hidden": tHid},
		},
		Results: results,
		Summary: map[string]any{
			"matmul_speedup_workers4_vs_naive":  round2(speedupNaive),
			"matmul_speedup_workers4_vs_serial": round2(speedupSerial),
			"fused_gather_segment_speedup":      round2(float64(gsUnfused.NsPerOp) / float64(gsFused.NsPerOp)),
			"fused_negscore_speedup":            round2(float64(negUnfused.NsPerOp) / float64(negFused.NsPerOp)),
			"fused_dequant_speedup_fp16":        round2(deqSpeedup["fp16"]),
			"fused_dequant_speedup_int8":        round2(deqSpeedup["int8"]),
			"axpyn_speedup_matmulta":            round2(trainSpeedup["train_matmulta"]),
			"axpyn_speedup_matmulgather":        round2(trainSpeedup["train_matmulgather"]),
			"axpyn_speedup_matmul_m16":          round2(trainSpeedup["train_matmul_m16"]),
			"arena_allocs_per_batch":            arenaStep.AllocsPerOp,
			"heap_allocs_per_batch":             heapStep.AllocsPerOp,
			"arena_train_step_speedup":          round2(float64(heapStep.NsPerOp) / float64(arenaStep.NsPerOp)),
		},
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s: matmul w4 %.2fx naive, arena %d allocs/batch\n", *out, speedupNaive, arenaStep.AllocsPerOp)

	if *check {
		failed := false
		if speedupNaive < 2 {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: matmul 4-worker speedup %.2fx < 2x naive\n", speedupNaive)
			failed = true
		}
		// On a single-CPU machine workers4-vs-serial is pure dispatch
		// overhead (~1.0x), so the naive floor above carries the check; with
		// real cores available a silently-disabled fan-out (e.g. a serialFor
		// regression) must not pass, so demand a genuine parallel speedup.
		if runtime.GOMAXPROCS(0) >= 2 && speedupSerial < 1.15 {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: matmul 4-worker speedup %.2fx vs serial on %d CPUs — kernel fan-out is not parallelizing\n",
				speedupSerial, runtime.GOMAXPROCS(0))
			failed = true
		}
		// Conservative floor: dequantizing only the gathered rows must
		// clearly beat re-materializing the whole float32 table per op.
		for kind, sp := range deqSpeedup {
			if sp < 1.2 {
				fmt.Fprintf(os.Stderr, "CHECK FAILED: fused %s dequant scoring %.2fx vs materialize-then-score, want >= 1.2x\n", kind, sp)
				failed = true
			}
		}
		// Holding the sum in registers across a row's terms must clearly
		// beat storing and reloading it per term at the shapes training
		// uses. Without AVX2 both sides are the same Go loop.
		for name, sp := range trainSpeedup {
			if tensor.HasAVX2() && sp < 1.5 {
				fmt.Fprintf(os.Stderr, "CHECK FAILED: %s through axpyN %.2fx the per-term axpy loop, want >= 1.5x\n", name, sp)
				failed = true
			}
		}
		if arenaStep.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: arena training step allocates %d/op, want 0\n", arenaStep.AllocsPerOp)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("checks passed: >=2x matmul throughput, 0 allocs/batch")
	}
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
