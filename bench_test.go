// Benchmarks regenerating every table and figure of the MariusGNN
// evaluation (paper §7) at reduced scale so the full suite completes in
// minutes. `go run ./cmd/benchtables` prints the same experiments at full
// benchmark scale with paper-style formatting. The -v output of each
// benchmark contains the measured rows.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchScale shrinks datasets so `go test -bench=.` stays fast; use
// cmd/benchtables for full-size runs.
const benchScale = experiments.Scale(0.15)

func BenchmarkTable1MemoryOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 6 {
			b.Fatal("expected six graphs")
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-16s edges %.0f GB, features %.0f GB, total %.0f GB", r.Name, r.EdgeGB, r.FeatGB, r.TotalGB)
			}
		}
	}
}

func BenchmarkTable3NodeClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchScale, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Log(r)
			if r.System == "M-GNN Mem" && r.Dataset == "Papers" {
				b.ReportMetric(r.Epoch.Seconds(), "mgnn-mem-epoch-s")
				b.ReportMetric(r.Metric, "mgnn-mem-acc")
			}
			if r.System == "DGL/PyG-sim" && r.Dataset == "Papers" {
				b.ReportMetric(r.Epoch.Seconds(), "baseline-epoch-s")
			}
		}
	}
}

func BenchmarkTable4LinkPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchScale, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Log(r)
			if r.System == "M-GNN Mem" && r.Dataset == "FB" {
				b.ReportMetric(r.Epoch.Seconds(), "mgnn-mem-epoch-s")
				b.ReportMetric(r.Metric, "mgnn-mem-mrr")
			}
		}
	}
}

func BenchmarkTable5GraphSageVsGAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchScale, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Log(r)
		}
	}
}

func BenchmarkTable6DENSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(benchScale, 4, 128, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("layers=%d sample %v vs %v, compute %v vs %v, nodes %d vs %d",
				r.Layers, r.DenseSample, r.BaselineSample, r.DenseCompute, r.BaselineCompute,
				r.DenseNodes, r.BaselineNodes)
		}
		deepest := rows[len(rows)-1]
		b.ReportMetric(float64(deepest.BaselineSample)/float64(deepest.DenseSample), "sample-speedup")
		b.ReportMetric(float64(deepest.BaselineCompute)/float64(deepest.DenseCompute), "compute-speedup")
	}
}

func BenchmarkTable7NextDoor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(60_000, 14, 5, 128, 500_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.KHopOOM {
				b.Logf("layers=%d DENSE %v (%d entries) vs KHop OOM", r.Layers, r.DenseTime, r.DenseEntries)
			} else {
				b.Logf("layers=%d DENSE %v (%d entries) vs KHop %v (%d entries)",
					r.Layers, r.DenseTime, r.DenseEntries, r.KHopTime, r.KHopEntries)
			}
		}
	}
}

func BenchmarkFigure6aBiasVsAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure6a(benchScale, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.Logf("%-6s p=%-3d l=%-3d bias=%.4f mrr=%.4f", p.Policy, p.P, p.L, p.Bias, p.MRR)
		}
	}
}

func BenchmarkFigure6bLogicalPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		effs, err := experiments.Figure6b(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range effs {
			b.Logf("l=%-3d bias=%.4f subgraphs=%d loads=%d", e.L, e.Bias, e.NumSubgraphs, e.TotalLoads)
		}
	}
}

func BenchmarkFigure6cPhysicalPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		effs, err := experiments.Figure6c(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range effs {
			b.Logf("p=%-3d bias=%.4f", e.P, e.Bias)
		}
	}
}

func BenchmarkFigure7TimeToAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7(benchScale, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.Logf("%-14s epoch %d: %6.2fs acc=%.4f", p.System, p.Epoch, p.Elapsed.Seconds(), p.Metric)
		}
	}
}

func BenchmarkFigure8AutoTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure8(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			mark := ""
			if p.AutoTuned {
				mark = " <-- auto-tuned"
			}
			b.Logf("p=%-3d c=%-2d l=%-3d epoch=%6.2fs mrr=%.4f%s", p.P, p.C, p.L, p.Epoch.Seconds(), p.MRR, mark)
		}
	}
}

func BenchmarkTable8CometVsBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table8(benchScale, 2)
		if err != nil {
			b.Fatal(err)
		}
		wins := 0
		for _, r := range rows {
			b.Logf("%-4s %-5s mem=%.4f comet=%.4f beta=%.4f epochs %.2fs vs %.2fs",
				r.Model, r.Dataset, r.MemMRR, r.CometMRR, r.BetaMRR,
				r.CometEpoch.Seconds(), r.BetaEpoch.Seconds())
			if r.CometMRR >= r.BetaMRR {
				wins++
			}
		}
		b.ReportMetric(float64(wins)/float64(len(rows)), "comet-win-rate")
	}
}

func BenchmarkSection73ExtremeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtremeScale(200_000, 800_000, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%.0f edges/sec, train MRR %.4f, IO %.1f MB, extrapolated $%.0f/epoch",
			res.EdgesPerSec, res.TrainMRR, float64(res.IOBytes)/1e6, res.ExtrapolatedC)
		b.ReportMetric(res.EdgesPerSec, "edges/sec")
	}
}
