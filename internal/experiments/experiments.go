// Package experiments implements one driver per table and figure of the
// MariusGNN evaluation (paper §7). Each driver runs the scaled-down
// workload described in DESIGN.md and returns structured rows; the
// cmd/benchtables binary renders them in the paper's format and the
// repository-root benchmarks expose them to `go test -bench`.
//
// Scale disclaimer: datasets are synthetic stand-ins roughly 100-1000x
// smaller than the paper's (see DESIGN.md §2), and the "GPU" is this
// machine's CPU running dense kernels. Absolute numbers therefore differ
// from the paper; the comparisons within each table (which system/policy
// wins, how ratios move with depth or partition counts) are the
// reproduction targets.
package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/marius"
)

// Scale globally shrinks experiment workloads; 1.0 is the default
// benchmark size (runs in minutes on a laptop).
type Scale float64

// EndToEndRow is one system configuration's end-to-end result
// (Tables 3, 4, 5).
type EndToEndRow struct {
	System   string
	Dataset  string
	Model    string
	Epoch    time.Duration
	Metric   float64 // accuracy or MRR
	Instance string
	Cost     float64 // $/epoch using the paper's instance assignment
	IOBytes  int64
}

func (r EndToEndRow) String() string {
	return fmt.Sprintf("%-14s %-10s %-5s epoch=%8.2fs metric=%.4f cost=$%.4f/epoch",
		r.System, r.Dataset, r.Model, r.Epoch.Seconds(), r.Metric, r.Cost)
}

// ncDataset builds the scaled node-classification datasets.
func ncDataset(name string, sc Scale, seed int64) *graph.Graph {
	switch name {
	case "Papers":
		cfg := gen.SBMConfig{
			NumNodes:   int(60_000 * sc),
			NumClasses: 16, AvgDegree: 15, FeatureDim: 64,
			Homophily: 0.7, FeatNoise: 3.0,
			TrainFrac: 0.05, ValidFrac: 0.02, TestFrac: 0.05, Seed: seed,
		}
		return gen.SBM(cfg)
	case "Mag":
		cfg := gen.SBMConfig{
			NumNodes:   int(80_000 * sc),
			NumClasses: 16, AvgDegree: 11, FeatureDim: 96,
			Homophily: 0.7, FeatNoise: 3.0,
			TrainFrac: 0.03, ValidFrac: 0.02, TestFrac: 0.05, Seed: seed,
		}
		return gen.SBM(cfg)
	default:
		panic("unknown NC dataset " + name)
	}
}

// lpDataset builds the scaled link-prediction datasets.
func lpDataset(name string, sc Scale, seed int64) *graph.Graph {
	switch name {
	case "237":
		return gen.KG(gen.FB15k237Scale(0.3*float64(sc), seed))
	case "FB":
		return gen.KG(gen.KGConfig{
			NumEntities: int(40_000 * sc), NumRelations: 64,
			NumEdges: int(160_000 * sc), ZipfS: 1.3,
			ValidFrac: 0.01, TestFrac: 0.02, Seed: seed,
		})
	case "Wiki":
		return gen.KG(gen.KGConfig{
			NumEntities: int(45_000 * sc), NumRelations: 48,
			NumEdges: int(280_000 * sc), ZipfS: 1.25,
			ValidFrac: 0.005, TestFrac: 0.01, Seed: seed,
		})
	default:
		panic("unknown LP dataset " + name)
	}
}

// runSession trains a session for epochs and returns mean epoch time,
// final validation metric and total IO.
func runSession(sess *marius.Session, epochs int) (time.Duration, float64, int64, error) {
	defer sess.Close()
	res, err := sess.Run(context.Background(), marius.Epochs(epochs))
	if err != nil {
		return 0, 0, 0, err
	}
	var total time.Duration
	var io int64
	for _, st := range res.Epochs {
		total += st.Duration
		io += st.IO.BytesRead + st.IO.BytesWritten
	}
	ev, err := sess.Evaluate(marius.ValidSplit)
	if err != nil {
		return 0, 0, 0, err
	}
	return total / time.Duration(epochs), ev.Value, io, nil
}

func tempDir(prefix string) string {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		panic(err)
	}
	return dir
}

// cost assigns the paper's instances: MariusGNN runs on the 1-GPU
// P3.2xLarge; baselines need the multi-GPU machines for CPU memory.
func cost(system string, epoch time.Duration, dataset string) (string, float64) {
	inst := costmodel.ByName("P3.2xLarge")
	if system == "DGL/PyG-sim" {
		if dataset == "Mag" {
			inst = costmodel.ByName("P3.16xLarge")
		} else {
			inst = costmodel.ByName("P3.8xLarge")
		}
	} else if system == "M-GNN Mem" && (dataset == "Papers" || dataset == "Mag" || dataset == "FB" || dataset == "Wiki") {
		inst = costmodel.ByName("P3.8xLarge")
	}
	return inst.Name, costmodel.CostPerEpoch(inst, epoch)
}

// Table3 reproduces the node-classification end-to-end comparison.
func Table3(sc Scale, epochs int) ([]EndToEndRow, error) {
	var rows []EndToEndRow
	for _, ds := range []string{"Papers", "Mag"} {
		for _, system := range []string{"M-GNN Mem", "M-GNN Disk", "DGL/PyG-sim"} {
			g := ncDataset(ds, sc, 100)
			opts := []marius.Option{
				marius.WithModel(marius.GraphSage), marius.WithFanouts(15, 10, 5),
				marius.WithDim(64), marius.WithBatchSize(512), marius.WithSeed(100),
			}
			switch system {
			case "M-GNN Disk":
				dir := tempDir("t3")
				defer os.RemoveAll(dir)
				opts = append(opts, marius.WithDisk(dir, marius.Partitions(16), marius.Capacity(4)))
			case "DGL/PyG-sim":
				opts = append(opts, marius.WithBaseline())
			}
			sess, err := marius.New(marius.NodeClassification(), g, opts...)
			if err != nil {
				return nil, err
			}
			epoch, metric, io, err := runSession(sess, epochs)
			if err != nil {
				return nil, err
			}
			inst, c := cost(system, epoch, ds)
			rows = append(rows, EndToEndRow{
				System: system, Dataset: ds, Model: "GS",
				Epoch: epoch, Metric: metric, Instance: inst, Cost: c, IOBytes: io,
			})
		}
	}
	return rows, nil
}

// Table4 reproduces the link-prediction end-to-end comparison (GraphSage).
func Table4(sc Scale, epochs int) ([]EndToEndRow, error) {
	return lpEndToEnd(sc, epochs, []string{"FB", "Wiki"}, marius.GraphSage, "GS")
}

// Table5 compares GraphSage and GAT on the Freebase-like graph.
func Table5(sc Scale, epochs int) ([]EndToEndRow, error) {
	gs, err := lpEndToEnd(sc, epochs, []string{"FB"}, marius.GraphSage, "GS")
	if err != nil {
		return nil, err
	}
	gat, err := lpEndToEnd(sc, epochs, []string{"FB"}, marius.GAT, "GAT")
	if err != nil {
		return nil, err
	}
	return append(gs, gat...), nil
}

func lpEndToEnd(sc Scale, epochs int, datasets []string, model marius.ModelKind, modelName string) ([]EndToEndRow, error) {
	var rows []EndToEndRow
	for _, ds := range datasets {
		for _, system := range []string{"M-GNN Mem", "M-GNN Disk", "DGL/PyG-sim"} {
			g := lpDataset(ds, sc, 200)
			opts := []marius.Option{
				marius.WithModel(model), marius.WithFanouts(10),
				marius.WithDim(32), marius.WithBatchSize(1024),
				marius.WithNegatives(256), marius.WithSeed(200),
			}
			switch system {
			case "M-GNN Disk":
				dir := tempDir("t4")
				defer os.RemoveAll(dir)
				opts = append(opts, marius.WithDisk(dir,
					marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)))
			case "DGL/PyG-sim":
				// DGL trains with 5x fewer negatives to avoid OOM (§7.1);
				// keep negatives equal here so MRR is comparable and let
				// runtime reflect execution strategy only.
				opts = append(opts, marius.WithBaseline())
			}
			sess, err := marius.New(marius.LinkPrediction(), g, opts...)
			if err != nil {
				return nil, err
			}
			epoch, metric, io, err := runSession(sess, epochs)
			if err != nil {
				return nil, err
			}
			inst, c := cost(system, epoch, ds)
			rows = append(rows, EndToEndRow{
				System: system, Dataset: ds, Model: modelName,
				Epoch: epoch, Metric: metric, Instance: inst, Cost: c, IOBytes: io,
			})
		}
	}
	return rows, nil
}

// Table1Row is one dataset's memory overheads.
type Table1Row struct {
	Name                    string
	Nodes, Edges            int64
	FeatDim                 int
	EdgeGB, FeatGB, TotalGB float64
}

// Table1 recomputes the paper's Table 1 from the published graph sizes.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, g := range costmodel.Table1 {
		eb, fb, tb := g.Overheads()
		rows = append(rows, Table1Row{
			Name: g.Name, Nodes: g.Nodes, Edges: g.Edges, FeatDim: g.FeatDim,
			EdgeGB: float64(eb) / 1e9, FeatGB: float64(fb) / 1e9, TotalGB: float64(tb) / 1e9,
		})
	}
	return rows
}
